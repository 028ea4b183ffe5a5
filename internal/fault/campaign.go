package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/netlist"
)

// Stats counts what a campaign (or one of its runs) actually did — the
// observability record the CLIs print.
type Stats struct {
	Faults     int64 // fault simulations performed
	Detected   int64 // faults the pattern set detected
	Dropped    int64 // (fault, word) sims skipped after the failing-bit cap hit
	Words      int64 // (fault, word) pairs event-simulated
	Events     int64 // gate evaluations performed
	Rehydrated int64 // results restored from a checkpoint journal, not simulated
	Wall       time.Duration
	Workers    int
}

// Add accumulates another run's stats (wall times sum; workers keep the max).
func (s *Stats) Add(o Stats) {
	s.Faults += o.Faults
	s.Detected += o.Detected
	s.Dropped += o.Dropped
	s.Words += o.Words
	s.Events += o.Events
	s.Rehydrated += o.Rehydrated
	s.Wall += o.Wall
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// ErrCampaignBusy is returned when RunCheckpoint/RunWordsCheckpoint is
// called while another run on the same Campaign is still in flight.
// Overlapping runs would share the per-worker scratch state and corrupt both
// results silently; the guard turns that latent hazard into an immediate
// error.
var ErrCampaignBusy = errors.New("fault: campaign already running — RunCheckpoint/RunWordsCheckpoint calls must not overlap")

// ErrChaosCancel is the cancellation cause injected by the chaos harness
// (ChaosCancelAfterSims) to simulate an operator interrupt at a
// deterministic amount of completed work.
var ErrChaosCancel = errors.New("fault: chaos harness simulated an interrupt")

// PanicError reports a panic recovered inside a campaign worker. The
// offending fault index is preserved so the defect is reproducible with a
// single serial simulation; sibling workers are cancelled and drain at the
// next chunk boundary, so one bad fault site cannot take down the process.
type PanicError struct {
	FaultIndex int    // index into the run's fault slice (-1 if outside a sim)
	Value      any    // the recovered panic value
	Stack      []byte // stack of the panicking worker
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: campaign worker panicked on fault index %d: %v", e.FaultIndex, e.Value)
}

// Interrupted reports whether err is a cooperative-cancellation outcome —
// a caller context cancel/deadline or a chaos-harness interrupt — as
// opposed to a hard failure such as a worker panic. Interrupted runs leave
// valid journaled work behind and are the ones worth resuming.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrChaosCancel)
}

// Chaos harness: an armed process-wide simulation budget. Once the total
// number of fault simulations crosses the limit, every running campaign
// cancels itself (cause ErrChaosCancel) at its next chunk boundary — a
// deterministic stand-in for Ctrl-C used by CI's kill-and-resume checks.
var (
	chaosLimit atomic.Int64
	chaosSims  atomic.Int64
)

// ChaosCancelAfterSims arms (n > 0) or disarms (n <= 0) the chaos budget
// and resets the simulation counter. Rehydrated checkpoint results do not
// count against the budget, so a resumed run proceeds past the point where
// the previous run was "killed".
func ChaosCancelAfterSims(n int64) {
	chaosSims.Store(0)
	chaosLimit.Store(n)
}

func chaosTripped() bool {
	limit := chaosLimit.Load()
	return limit > 0 && chaosSims.Load() >= limit
}

// campaignSimHook, when non-nil, runs before every fault simulation. The
// chaos tests use it to inject panics and cancellations at exact fault
// indices; it must be set before any campaign starts and never during one.
var campaignSimHook func(faultIndex int)

// CampaignConfig tunes a fault-simulation campaign.
type CampaignConfig struct {
	// Workers is the concurrency degree; <= 0 means runtime.NumCPU().
	Workers int
	// MaxFail caps failing bits collected per fault (0 = unlimited —
	// required by isolation/dictionary flows that need full FailObs sets).
	MaxFail int
	// Drop enables fault dropping: once a fault is detected by some word,
	// later pattern words are skipped for it (coverage-only mode; forces an
	// effective MaxFail of at least 1). Must stay off when callers need
	// every failing observation point.
	Drop bool
}

// Campaign shards a fault list across workers that share one read-only
// simCore (good-machine images, cones, SoA gate arrays, obs map) while
// each owns a private simScratch, so no synchronization touches the hot
// loop. Results are always ordered by fault index and bit-identical to
// the serial path regardless of worker count.
//
// Worker scratches come from a grow-only pool on the simCore, shared by
// every campaign over the same simulator, so steady-state runs allocate
// no scratch state at all. Calls must not overlap: an atomic in-use guard
// rejects a second concurrent run with ErrCampaignBusy. The underlying
// Sim's pattern set must not grow during a run.
type Campaign struct {
	cfg   CampaignConfig
	core  *simCore
	inUse atomic.Bool
}

// NewCampaign prepares a campaign over s's netlist and pattern set.
func NewCampaign(s *Sim, cfg CampaignConfig) *Campaign {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Drop && cfg.MaxFail <= 0 {
		cfg.MaxFail = 1
	}
	return &Campaign{cfg: cfg, core: &s.simCore}
}

// Workers reports the configured concurrency degree.
func (c *Campaign) Workers() int { return c.cfg.Workers }

// RunCheckpoint simulates every fault against the full pattern set.
// Cancellation is cooperative at chunk granularity: when ctx is cancelled,
// in-flight chunks finish, results computed so far stay valid in the
// returned slice, and the error carries the cancellation cause (or a
// PanicError if a worker died). The run reports progress into any hook
// attached with WithProgress.
//
// A non-nil checkpoint journals the run: chunks already journaled by a
// previous (interrupted) identical run are skipped and their results
// rehydrated; newly completed chunks are appended to the journal and
// flushed crash-safely. A nil checkpoint runs without a journal.
func (c *Campaign) RunCheckpoint(ctx context.Context, ck *Checkpoint, faults []netlist.Fault) ([]Result, Stats, error) {
	return c.run(ctx, ck, faults, 0, len(c.core.Patterns))
}

// RunWordsCheckpoint is RunCheckpoint over pattern words [wLo, wHi) only —
// the campaign form of the ATPG per-word fault-dropping loop.
func (c *Campaign) RunWordsCheckpoint(ctx context.Context, ck *Checkpoint, faults []netlist.Fault, wLo, wHi int) ([]Result, Stats, error) {
	return c.run(ctx, ck, faults, wLo, wHi)
}

func (c *Campaign) run(ctx context.Context, ck *Checkpoint, faults []netlist.Fault, wLo, wHi int) ([]Result, Stats, error) {
	if !c.inUse.CompareAndSwap(false, true) {
		return nil, Stats{}, ErrCampaignBusy
	}
	defer c.inUse.Store(false)

	start := time.Now()
	out := make([]Result, len(faults))
	workers := c.cfg.Workers
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers < 1 {
		workers = 1
	}

	var st Stats
	st.Workers = workers

	progress := ProgressFromContext(ctx)
	total := int64(len(faults))
	var progressDone atomic.Int64

	// The campaign's content identity, needed by the checkpoint journal and
	// by the shard machinery; skipped entirely (it walks the fault list and
	// pattern window) when neither is in play.
	tgt := shardTargetFrom(ctx)
	plan := shardPlanFrom(ctx)
	var id CampaignKey
	if ck != nil || tgt != nil || plan != nil {
		id = campaignIdentity(c.core, faults, wLo, wHi, c.cfg)
	}

	// Shard-worker path: this campaign is the one a coordinator assigned a
	// window of. Simulate only that window and stop the flow.
	if tgt != nil && tgt.claim(id) {
		return c.runWindow(ctx, tgt.res, faults, wLo, wHi, progress, start)
	}

	// Bind the next journal section and rehydrate completed chunks.
	var sec *ckSection
	var done []bool
	if ck != nil {
		var err error
		sec, err = ck.section(id)
		if err != nil {
			return nil, st, err
		}
		done, st.Rehydrated = sec.restore(out)
		if progress != nil && st.Rehydrated > 0 {
			progressDone.Store(st.Rehydrated)
			progress(st.Rehydrated, total)
		}
		if st.Rehydrated == int64(len(faults)) {
			// Everything was journaled; nothing to simulate.
			st.Wall = time.Since(start)
			return out, st, ck.Flush()
		}
	}

	if err := ctx.Err(); err != nil {
		return out, st, context.Cause(ctx)
	}

	scrs := c.core.acquireScratch(workers)
	defer c.core.releaseScratch(scrs)
	// Coordinator path: fan this campaign's pending ranges out to remote
	// workers first. Shards that fail to dispatch stay pending and the
	// local worker pool below picks them up — local fallback is the default
	// code path, not a special case.
	if plan.eligible(len(faults), wLo, wHi, len(c.core.Patterns)) {
		done = c.dispatchShards(ctx, plan, id, out, sec, done, progress, &progressDone, total, &st)
		if err := ctx.Err(); err != nil {
			if ck != nil {
				if ferr := ck.Flush(); ferr != nil {
					return out, st, ferr
				}
			}
			return out, st, context.Cause(ctx)
		}
	}

	q := newChunkQueue(len(faults), workers)
	perWorker := make([]Stats, workers)

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// Periodic crash-safety flush while the run is in flight: a hard kill
	// loses at most the last flush interval of completed chunks.
	var flusherDone chan struct{}
	if ck != nil {
		flusherDone = make(chan struct{})
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-flusherDone:
					return
				case <-t.C:
					_ = ck.Flush()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					cancel(&PanicError{FaultIndex: cur, Value: r, Stack: debug.Stack()})
				}
			}()
			scr := scrs[w]
			wst := &perWorker[w]
			words0, events0 := scr.words, scr.events
			for {
				// Cooperative cancellation at chunk granularity: a cancelled
				// (or chaos-tripped) worker stops claiming new chunks but the
				// chunk in flight always completes and gets journaled.
				if runCtx.Err() != nil {
					break
				}
				if chaosTripped() {
					cancel(ErrChaosCancel)
					break
				}
				lo, hi, ok := q.next(w)
				if !ok {
					break
				}
				fresh := c.simChunk(scr, faults, out, done, lo, hi, wLo, wHi, wst, &cur)
				if sec != nil {
					sec.record(lo, hi, out, done)
				}
				if progress != nil && fresh > 0 {
					progress(progressDone.Add(int64(fresh)), total)
				}
			}
			wst.Words = scr.words - words0
			wst.Events = scr.events - events0
		}(w)
	}
	wg.Wait()
	if flusherDone != nil {
		close(flusherDone)
	}

	for i := range perWorker {
		st.Faults += perWorker[i].Faults
		st.Detected += perWorker[i].Detected
		st.Dropped += perWorker[i].Dropped
		st.Words += perWorker[i].Words
		st.Events += perWorker[i].Events
	}
	st.Wall = time.Since(start)

	err := context.Cause(runCtx)
	if ck != nil {
		// Flush even on error: an interrupted run's completed chunks are
		// exactly what the resume rehydrates.
		if ferr := ck.Flush(); err == nil {
			err = ferr
		}
	}
	return out, st, err
}

// runWindow is the shard-worker execution path entered from run when a
// WithShardTarget assignment claims this campaign: simulate only fault
// indices [res.Lo, res.Hi), seal them into the collector, and return
// ErrShardDone so the surrounding flow stops instead of computing work the
// coordinator never asked for. The window runs on the same scratch pool
// and chunk queue as a full campaign, so its results are bit-identical to
// the same indices of a local run at any worker count. Shard windows are
// not journaled: a failed shard is retried wholesale, and idempotence
// comes from the content digest, not from resume.
func (c *Campaign) runWindow(ctx context.Context, res *ShardResult, faults []netlist.Fault,
	wLo, wHi int, progress ProgressFunc, start time.Time) ([]Result, Stats, error) {

	lo, hi := res.Lo, res.Hi
	var st Stats
	if lo < 0 || hi <= lo || hi > len(faults) {
		return nil, st, fmt.Errorf("fault: shard window [%d,%d) out of range for %d faults", lo, hi, len(faults))
	}
	n := hi - lo
	out := make([]Result, len(faults))
	workers := c.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	st.Workers = workers
	total := int64(n)
	var progressDone atomic.Int64

	if err := ctx.Err(); err != nil {
		return out, st, context.Cause(ctx)
	}
	scrs := c.core.acquireScratch(workers)
	defer c.core.releaseScratch(scrs)
	q := newChunkQueue(n, workers)
	perWorker := make([]Stats, workers)

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					cancel(&PanicError{FaultIndex: cur, Value: r, Stack: debug.Stack()})
				}
			}()
			scr := scrs[w]
			wst := &perWorker[w]
			words0, events0 := scr.words, scr.events
			for {
				if runCtx.Err() != nil {
					break
				}
				if chaosTripped() {
					cancel(ErrChaosCancel)
					break
				}
				wlo, whi, ok := q.next(w)
				if !ok {
					break
				}
				c.simChunk(scr, faults, out, nil, lo+wlo, lo+whi, wLo, wHi, wst, &cur)
				if progress != nil {
					progress(progressDone.Add(int64(whi-wlo)), total)
				}
			}
			wst.Words = scr.words - words0
			wst.Events = scr.events - events0
		}(w)
	}
	wg.Wait()

	for i := range perWorker {
		st.Faults += perWorker[i].Faults
		st.Detected += perWorker[i].Detected
		st.Dropped += perWorker[i].Dropped
		st.Words += perWorker[i].Words
		st.Events += perWorker[i].Events
	}
	st.Wall = time.Since(start)

	if err := context.Cause(runCtx); err != nil {
		// A cancelled or panicking window is a real failure, never
		// ErrShardDone: the coordinator must not merge a partial shard.
		return out, st, err
	}
	res.Results = append([]Result(nil), out[lo:hi]...)
	res.Stats = st
	res.seal()
	return out, st, ErrShardDone
}

// tileState carries one fault's accumulated result across the word tiles
// of the batched campaign path.
type tileState struct {
	idx   int // index into the run's fault slice
	f     netlist.Fault
	res   Result
	words int64 // (fault, word) pairs actually simulated so far
}

// wordTileSize is the pattern-word batch the tiled campaign path feeds
// each in-flight fault before moving to the next fault of the chunk. One
// excitation-index block (64 words) per window: each simWords call then
// reads exactly one excitation word per fault, the per-window prologue
// (seed resolution, excitation-row slicing) is paid once per block, and
// a chunk of faults still streams over the same good-image rows while
// they are cache-hot.
const wordTileSize = 64

// simChunk simulates fault indices [lo, hi) into out, skipping entries
// marked done, and returns the number of freshly simulated faults. With
// MaxFail == 1 (detection-only mode, the ATPG/fab workhorse) and a
// multi-word window it takes the pattern×fault tiled path; every other
// configuration runs each fault's full word range in one call. cur tracks
// the in-flight fault index for the worker's panic recovery.
func (c *Campaign) simChunk(scr *simScratch, faults []netlist.Fault, out []Result,
	done []bool, lo, hi, wLo, wHi int, wst *Stats, cur *int) int {

	maxFail := c.cfg.MaxFail
	if maxFail == 1 && wHi-wLo > 1 {
		return c.simChunkTiled(scr, faults, out, done, lo, hi, wLo, wHi, wst, cur)
	}
	nWords := int64(wHi - wLo)
	fresh := 0
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue
		}
		fresh++
		*cur = i
		if campaignSimHook != nil {
			campaignSimHook(i)
		}
		chaosSims.Add(1)
		before := scr.words
		out[i] = c.core.run(scr, faults[i], maxFail, wLo, wHi)
		wst.Faults++
		if out[i].Detected {
			wst.Detected++
		}
		if maxFail > 0 {
			wst.Dropped += nWords - (scr.words - before)
		}
	}
	*cur = -1
	return fresh
}

// simChunkTiled is simChunk's word-major variant: the chunk's pending
// faults advance through the pattern set wordTileSize words at a time, so
// one tile's good-machine images are reused across every fault of the
// chunk before the next tile is touched. Valid only for MaxFail == 1,
// where it is result-identical to the fault-major order: a capped fault's
// entire failure content comes from its single capping word (simulated in
// exactly one tile call), and an uncapped fault accumulates nothing, so
// splitting a fault's word range across beginFault epochs cannot change
// any Result. Faults drop out of the tile set the moment they cap, which
// is what makes drop-mode campaigns word-order sensitive to begin with —
// the per-fault words simulated (and Stats.Dropped) match the fault-major
// path exactly.
func (c *Campaign) simChunkTiled(scr *simScratch, faults []netlist.Fault, out []Result,
	done []bool, lo, hi, wLo, wHi int, wst *Stats, cur *int) int {

	nWords := int64(wHi - wLo)
	tiles := scr.tiles[:0]
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue
		}
		*cur = i
		if campaignSimHook != nil {
			campaignSimHook(i)
		}
		chaosSims.Add(1)
		tiles = append(tiles, tileState{idx: i, f: faults[i]})
	}
	*cur = -1
	fresh := len(tiles)
	for w := wLo; w < wHi && len(tiles) > 0; w += wordTileSize {
		tw := w + wordTileSize
		if tw > wHi {
			tw = wHi
		}
		keep := tiles[:0]
		for ti := range tiles {
			t := &tiles[ti]
			*cur = t.idx
			words0 := scr.words
			c.core.beginFault(scr)
			capped := c.core.simWords(scr, t.f, &t.res, 1, w, tw)
			t.words += scr.words - words0
			if capped {
				out[t.idx] = t.res
				wst.Faults++
				if t.res.Detected {
					wst.Detected++
				}
				wst.Dropped += nWords - t.words
			} else {
				keep = append(keep, *t)
			}
		}
		*cur = -1
		tiles = keep
	}
	for ti := range tiles {
		t := &tiles[ti]
		out[t.idx] = t.res
		wst.Faults++
		if t.res.Detected {
			wst.Detected++
		}
		wst.Dropped += nWords - t.words
	}
	// Scrub the reusable tile arena so finished Results don't stay
	// reachable through the scratch between runs.
	tiles = tiles[:cap(tiles)]
	for ti := range tiles {
		tiles[ti] = tileState{}
	}
	scr.tiles = tiles[:0]
	return fresh
}

// chunkQueue is a work-stealing dispatch queue over fault indices [0, n):
// the range is pre-split into one contiguous segment per worker, each
// consumed front-to-back in fixed-size chunks via an atomic cursor. A
// worker that drains its own segment steals chunks from the segment with
// the most work remaining, so one fault with a huge propagation region
// (or a skewed segment) cannot stall the rest of the pool.
type chunkQueue struct {
	segs  []chunkSeg
	chunk int64
}

type chunkSeg struct {
	pos atomic.Int64 // next unclaimed index
	end int64        // one past the last index (immutable)
	_   [6]int64     // keep cursors on separate cache lines
}

func newChunkQueue(n, workers int) *chunkQueue {
	// Small chunks keep stealing effective; larger ones amortize the atomic
	// op. ~16 chunks per worker balances both.
	chunk := n / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	q := &chunkQueue{segs: make([]chunkSeg, workers), chunk: int64(chunk)}
	per := n / workers
	rem := n % workers
	lo := 0
	for i := range q.segs {
		hi := lo + per
		if i < rem {
			hi++
		}
		q.segs[i].pos.Store(int64(lo))
		q.segs[i].end = int64(hi)
		lo = hi
	}
	return q
}

// take claims the next chunk of segment i, if any.
func (q *chunkQueue) take(i int) (lo, hi int, ok bool) {
	s := &q.segs[i]
	for {
		p := s.pos.Load()
		if p >= s.end {
			return 0, 0, false
		}
		h := p + q.chunk
		if h > s.end {
			h = s.end
		}
		if s.pos.CompareAndSwap(p, h) {
			return int(p), int(h), true
		}
	}
}

// next returns worker self's next chunk: its own segment first, then a
// steal from the fullest remaining segment.
func (q *chunkQueue) next(self int) (lo, hi int, ok bool) {
	if lo, hi, ok = q.take(self); ok {
		return lo, hi, true
	}
	for {
		best, bestRem := -1, int64(0)
		for i := range q.segs {
			if rem := q.segs[i].end - q.segs[i].pos.Load(); rem > bestRem {
				best, bestRem = i, rem
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		if lo, hi, ok = q.take(best); ok {
			return lo, hi, true
		}
	}
}
