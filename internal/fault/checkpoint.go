// Checkpoint journals for campaign-shaped workloads.
//
// A Checkpoint records completed work along a *deterministic flow* — a
// sequence of campaign runs whose fault lists, pattern words, and configs
// are fully determined by the flow's inputs (seed, design, flags). Each
// campaign run binds one journal *section* (identified by digests of its
// fault list, pattern words, and config); each completed chunk appends a
// fault-index range plus its serialized results and a digest.
//
// On resume the flow is simply re-executed: campaign runs whose sections
// are journaled rehydrate instantly instead of simulating, the first
// incomplete section resumes at chunk granularity, and everything after
// runs fresh. Because results depend only on (fault, pattern words) — not
// on worker count or scheduling — a resumed run is bit-identical to an
// uninterrupted one at any worker count.
//
// The journal is an append-only log (format v3): a header line, one
// section line per campaign run carrying its file ordinal and identity,
// and one self-checking {section, lo, hi, digest, results} line per
// freshly completed chunk range. Each line is encoded once, when its
// section binds or its chunk completes, and queued; Flush appends the
// queue with O_APPEND and fsyncs. A crash mid-append can leave only an
// unterminated final line: loading drops it and cuts the file back to the
// last complete record before anything new is appended. A complete line
// that fails its JSON, range or digest check is corruption and refused.
package fault

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"sync"

	"rescue/internal/netlist"
)

// CampaignKey pins a journal section to one specific campaign run. Two runs
// with equal keys are guaranteed to produce identical results, so a
// section recorded by one can be rehydrated by the other. Any mismatch
// (different seed, design, pattern set, worker-independent config) is
// detected and refused instead of silently resuming the wrong work.
//
// The key is also the unit of distribution: a shard job names the campaign
// it computes a window of by CampaignKey, and the coordinator accepts a
// shard result only when the worker derived the same key from its own
// re-execution of the flow — content addressing doubling as an end-to-end
// integrity check (see shard.go).
type CampaignKey struct {
	NFaults        int    `json:"nFaults"`
	FaultsDigest   string `json:"faultsDigest"`
	WLo            int    `json:"wLo"`
	WHi            int    `json:"wHi"`
	PatternsDigest string `json:"patternsDigest"`
	DetectOnly     bool   `json:"detectOnly"`
}

// campaignIdentity digests the inputs that determine a run's results.
func campaignIdentity(core *simCore, faults []netlist.Fault, wLo, wHi int, cfg CampaignConfig) CampaignKey {
	fh := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		fh.Write(buf[:])
	}
	for _, f := range faults {
		writeInt(int64(f.Gate))
		writeInt(int64(f.FF))
		writeInt(int64(f.Pin))
		if f.StuckAt1 {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	faultsDigest := fmt.Sprintf("%016x", fh.Sum64())

	ph := fnv.New64a()
	writeIntP := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		ph.Write(buf[:])
	}
	for w := wLo; w < wHi && w < len(core.Patterns); w++ {
		p := core.Patterns[w]
		writeIntP(int64(p.Lanes))
		for _, v := range p.FFVals {
			writeIntP(int64(v))
		}
		for _, v := range p.PIVals {
			writeIntP(int64(v))
		}
	}
	return CampaignKey{
		NFaults:        len(faults),
		FaultsDigest:   faultsDigest,
		WLo:            wLo,
		WHi:            wHi,
		PatternsDigest: fmt.Sprintf("%016x", ph.Sum64()),
		DetectOnly:     cfg.DetectOnly,
	}
}

// ckRange is one journaled span of completed fault indices [Lo, Hi) with
// their results, as loaded from disk.
type ckRange struct {
	Lo, Hi  int
	Results []Result
}

// ckSection is the journal of one campaign run. Its loaded ranges are
// read only by restore, by the one run that binds the section; freshly
// recorded results go straight to the journal's append queue.
type ckSection struct {
	ck     *Checkpoint
	ord    int // the section line's ordinal in the journal file
	id     CampaignKey
	ranges []ckRange
}

// restore rehydrates journaled results into out and returns the done
// bitmap (nil when nothing was journaled) plus the rehydrated count.
func (s *ckSection) restore(out []Result) ([]bool, int64) {
	if len(s.ranges) == 0 {
		return nil, 0
	}
	done := make([]bool, len(out))
	var n int64
	for _, r := range s.ranges {
		for i := r.Lo; i < r.Hi && i < len(out); i++ {
			if !done[i] {
				out[i] = r.Results[i-r.Lo]
				done[i] = true
				n++
			}
		}
	}
	return done, n
}

// record journals the freshly simulated sub-ranges of chunk [lo, hi): each
// run of indices that were not rehydrated (done) is encoded once as a
// range line and queued for the next Flush, so records never overlap. The
// line is written out directly in ckLine's range shape; json.Encoder would
// scan the encoded results a second time as a RawMessage.
func (s *ckSection) record(lo, hi int, out []Result, done []bool) {
	pendingRuns(done, lo, hi, func(i, j int) {
		raw, digest := sealResults(out[i:j])
		s.ck.mu.Lock()
		defer s.ck.mu.Unlock()
		q := &s.ck.queue
		fmt.Fprintf(q, `{"section":%d,"lo":%d,"hi":%d,"digest":"%s","results":`, s.ord, i, j, digest)
		q.Write(raw)
		q.WriteString("}\n")
	})
}

// pendingRuns calls fn(i, j) for each maximal run [i, j) of indices in
// [lo, hi) that done does not mark (a nil done marks nothing).
func pendingRuns(done []bool, lo, hi int, fn func(i, j int)) {
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue
		}
		j := i + 1
		for j < hi && (done == nil || !done[j]) {
			j++
		}
		fn(i, j)
		i = j // done[j] is set (or j == hi), so the loop's i++ skips nothing pending
	}
}

// Checkpoint is a crash-safe journal for a deterministic sequence of
// campaign runs. It is safe for use by the campaign workers (record) and
// the flusher concurrently; the section cursor itself advances only
// between runs.
type Checkpoint struct {
	mu       sync.Mutex
	path     string
	sections []*ckSection // bound ones first, in binding order, up to cursor
	cursor   int
	flexible bool
	queue    bytes.Buffer // encoded lines not yet appended to the file
	onDisk   bool         // the file at path holds this journal's header
	err      error        // sticky append failure
}

// Path returns the journal's on-disk location.
func (ck *Checkpoint) Path() string { return ck.path }

// ContentAddressed switches the journal from strict positional section
// matching to matching by content identity. Strict mode (the CLI default)
// refuses a resume whose next campaign differs from the journaled one —
// the right guard when the journal path is user-chosen and could belong to
// a run with different flags. Content-addressed mode is for callers that
// already bind the journal path to the run's full identity (rescued names
// journals by the job-spec digest): there a divergent section order is not
// user error but a cache effect — a run whose early campaigns were served
// from a warm artifact store journals only its later ones, and the cold
// re-run must still find them.
func (ck *Checkpoint) ContentAddressed() { ck.flexible = true }

// NewCheckpoint starts a fresh journal at path. Nothing is written until
// the first Flush, which replaces any file already there.
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path}
}

// OpenCheckpoint opens a journal for a CLI run: with resume, any existing
// journal at path is loaded (a missing file starts fresh); without resume,
// an existing file is refused so a stale journal from a different run can
// never be silently clobbered or misapplied.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	if !resume {
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("fault: checkpoint %s already exists; pass -resume to continue it or remove the file", path)
		}
		return NewCheckpoint(path), nil
	}
	return LoadCheckpoint(path)
}

// LoadCheckpoint reads a journal written by Flush. A missing file yields
// an empty (fresh) checkpoint; a corrupt file is an error. A torn final
// append is cut off the file, so later appends follow a complete line.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck := NewCheckpoint(path)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kept, err := ck.read(f)
	if err != nil {
		return nil, fmt.Errorf("fault: checkpoint %s: %w", path, err)
	}
	if err := os.Truncate(path, kept); err != nil {
		return nil, err
	}
	ck.onDisk = true
	return ck, nil
}

// ckLine is the union of the journal's line shapes (header, section,
// range), distinguished by which fields are present. Section and range
// lines both name their section by file ordinal.
type ckLine struct {
	V       *int            `json:"v,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Section *int            `json:"section,omitempty"`
	ID      *CampaignKey    `json:"id,omitempty"`
	Lo      int             `json:"lo"`
	Hi      int             `json:"hi"`
	Digest  string          `json:"digest,omitempty"`
	Results json.RawMessage `json:"results,omitempty"`
}

// ckKind and ckVersion name the journal format in its header line.
// Version 3 is the append-only log whose range lines name their section;
// a journal of any other version (v2 was a rewritten snapshot) is refused
// outright rather than failing later as a misleading mismatch.
const (
	ckKind    = "rescue-campaign-checkpoint"
	ckVersion = 3
)

// read loads a journal's lines in file order and returns the length of
// its complete lines. An unterminated final line is a torn append: it is
// left out of that length, and the caller cuts it off the file.
func (ck *Checkpoint) read(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var kept int64
	sawHeader := false
	for lineNo := 1; ; lineNo++ {
		raw, err := br.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		kept += int64(len(raw))
		raw = raw[:len(raw)-1]
		if len(raw) == 0 {
			continue
		}
		var ln ckLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return 0, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !sawHeader && ln.V == nil {
			return 0, fmt.Errorf("line %d: missing journal header", lineNo)
		}
		switch {
		case ln.V != nil:
			if ln.Kind != ckKind {
				return 0, fmt.Errorf("line %d: not a %s journal", lineNo, ckKind)
			}
			if *ln.V != ckVersion {
				return 0, fmt.Errorf("line %d: journal format v%d, this build reads only v%d; delete the journal to start over",
					lineNo, *ln.V, ckVersion)
			}
			sawHeader = true
		case ln.ID != nil:
			if ln.Section == nil || *ln.Section != len(ck.sections) {
				return 0, fmt.Errorf("line %d: section out of order", lineNo)
			}
			ck.sections = append(ck.sections, &ckSection{ck: ck, ord: *ln.Section, id: *ln.ID})
		case ln.Results != nil:
			if ln.Section == nil || *ln.Section < 0 || *ln.Section >= len(ck.sections) {
				return 0, fmt.Errorf("line %d: range names no journaled section", lineNo)
			}
			s := ck.sections[*ln.Section]
			if got := resultsDigest(ln.Results); got != ln.Digest {
				return 0, fmt.Errorf("line %d: results digest mismatch (journal corrupt?)", lineNo)
			}
			var results []Result
			if err := json.Unmarshal(ln.Results, &results); err != nil {
				return 0, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if ln.Lo < 0 || ln.Hi < ln.Lo || ln.Hi-ln.Lo != len(results) || ln.Hi > s.id.NFaults {
				return 0, fmt.Errorf("line %d: range [%d,%d) inconsistent with %d results (section has %d faults)",
					lineNo, ln.Lo, ln.Hi, len(results), s.id.NFaults)
			}
			s.ranges = append(s.ranges, ckRange{Lo: ln.Lo, Hi: ln.Hi, Results: results})
		default:
			return 0, fmt.Errorf("line %d: unrecognized journal line", lineNo)
		}
	}
	if len(ck.sections) == 0 {
		return 0, fmt.Errorf("empty or headerless journal")
	}
	return kept, nil
}

// section binds the next campaign run of the flow to its journal section.
// Strict mode takes the section at the cursor, which must match the run's
// identity exactly: divergence means the flow was re-run with different
// inputs and resuming would be wrong. Content-addressed mode claims the
// first unbound section with a matching identity wherever it is, keeping
// the relative order of the ones skipped over. A run with nothing to
// claim gets a fresh section with the next file ordinal; its line is
// queued under the lock, so section lines reach the file in ordinal order.
func (ck *Checkpoint) section(id CampaignKey) (*ckSection, error) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	i := ck.cursor
	if ck.flexible {
		for i < len(ck.sections) && ck.sections[i].id != id {
			i++
		}
	} else if i < len(ck.sections) && ck.sections[i].id != id {
		return nil, fmt.Errorf("fault: checkpoint %s section %d was journaled by a different run "+
			"(journal %+v, this run %+v) — same seed, design, and flags are required to resume",
			ck.path, ck.cursor, ck.sections[i].id, id)
	}
	if i == len(ck.sections) {
		fresh := &ckSection{ck: ck, ord: i, id: id}
		// The encode errors are dropped: these lines hold only ints,
		// strings and bools, and a bytes.Buffer write cannot fail.
		if fresh.ord == 0 {
			v := ckVersion
			_ = json.NewEncoder(&ck.queue).Encode(ckLine{V: &v, Kind: ckKind})
		}
		_ = json.NewEncoder(&ck.queue).Encode(ckLine{Section: &fresh.ord, ID: &fresh.id})
		ck.sections = append(ck.sections, fresh)
	}
	s := ck.sections[i]
	copy(ck.sections[ck.cursor+1:i+1], ck.sections[ck.cursor:i])
	ck.sections[ck.cursor] = s
	ck.cursor++
	return s, nil
}

func resultsDigest(raw []byte) string {
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sealResults encodes results and digests the encoding: the seal a range
// line and a shard result both carry.
func sealResults(rs []Result) (raw []byte, digest string) {
	raw = appendResults(make([]byte, 0, 40*len(rs)), rs) // a detect-only result takes ~34 bytes
	return raw, resultsDigest(raw)
}

// appendResults appends a non-nil rs encoded byte for byte as json.Marshal
// encodes it, without reflection: a journaled run encodes every result it
// simulates, and the reflective encoder spent several times longer on each.
func appendResults(b []byte, rs []Result) []byte {
	b = append(b, '[')
	for k, r := range rs {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Detected":`...)
		b = strconv.AppendBool(b, r.Detected)
		b = append(b, `,"FailObs":`...)
		if r.FailObs == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for m, o := range r.FailObs {
				if m > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(o), 10)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// Flush appends the queued lines to the journal with O_APPEND and fsyncs.
// A fresh journal's first append creates the file, replacing whatever was
// at the path; later appends need the file to still be there. A failed
// append is sticky: the file may now end in a partial line, which no
// record may follow, so every later Flush returns the same error.
func (ck *Checkpoint) Flush() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.err != nil || ck.queue.Len() == 0 || ck.path == "" {
		return ck.err
	}
	flag := os.O_WRONLY | os.O_APPEND
	if !ck.onDisk {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(ck.path, flag, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(ck.queue.Bytes()); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		ck.err = fmt.Errorf("fault: checkpoint %s: append: %w", ck.path, err)
		return ck.err
	}
	ck.onDisk = true
	ck.queue.Reset()
	return nil
}
