package fault

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// validJournal runs a small checkpointed campaign and returns the flushed
// journal bytes — a structurally complete specimen for the fuzzer to
// mutate. The circuit and pattern are deliberately tiny: large corpus
// entries make the fuzz engine spend its whole budget minimizing instead
// of exploring.
func validJournal(tb testing.TB) []byte {
	tb.Helper()
	n := netlist.New("specimen")
	a := n.Input("a")
	b := n.Input("b")
	q := n.AddFF(n.And(a, b), "q")
	n.Output(n.Or(q, a), "po")
	if err := n.Validate(); err != nil {
		tb.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	p := c.NewPattern(4)
	p.PIVals[0] = 0x5
	p.PIVals[1] = 0x3
	sim := NewSim(c, []*scan.Pattern{p})
	path := filepath.Join(tb.TempDir(), "journal.ck")
	ck := NewCheckpoint(path)
	camp := NewCampaign(sim, CampaignConfig{Workers: 1})
	if _, _, err := camp.RunCheckpoint(context.Background(), ck, NewUniverse(n).Collapsed); err != nil {
		tb.Fatal(err)
	}
	if err := ck.Flush(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzCheckpointRead feeds arbitrary (typically mutated-journal) bytes to
// the checkpoint decoder. The decoder must never panic; it either rejects
// the input with an error or accepts a journal whose sections are
// internally consistent — restore must be safe to call and every
// rehydrated count must stay within the section's declared fault count.
// The kept length of an accepted input (its complete lines, without a torn
// final append) never exceeds the input, and re-reading exactly that
// prefix yields the same sections and ranges.
func FuzzCheckpointRead(f *testing.F) {
	f.Add(validJournal(f))
	f.Add([]byte(""))
	f.Add([]byte("{\"v\":3,\"kind\":\"rescue-campaign-checkpoint\"}\n"))
	f.Add([]byte("{\"section\":0,\"id\":{}}\n"))
	f.Add([]byte("not json at all\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck := NewCheckpoint("")
		kept, err := ck.read(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if kept < 0 || kept > int64(len(data)) {
			t.Fatalf("kept %d bytes of a %d-byte input", kept, len(data))
		}
		if len(ck.sections) == 0 {
			t.Fatal("read accepted a journal with no sections")
		}
		again := NewCheckpoint("")
		if k, err := again.read(bytes.NewReader(data[:kept])); err != nil || k != kept {
			t.Fatalf("re-reading the kept %d-byte prefix: kept %d, err %v", kept, k, err)
		}
		if len(again.sections) != len(ck.sections) {
			t.Fatalf("kept prefix has %d sections, input has %d", len(again.sections), len(ck.sections))
		}
		for si, s := range ck.sections {
			a := again.sections[si]
			if a.ord != s.ord || a.id != s.id || !reflect.DeepEqual(a.ranges, s.ranges) {
				t.Fatalf("section %d differs when its kept prefix is re-read", si)
			}
			if s.id.NFaults < 0 {
				t.Fatalf("section %d: accepted negative fault count %d", si, s.id.NFaults)
			}
			// A mutated journal may declare an absurd fault count with no
			// ranges behind it; restore guards i < len(out), so a capped
			// buffer exercises the same code without an unbounded alloc.
			size := s.id.NFaults
			if size > 1<<16 {
				size = 1 << 16
			}
			out := make([]Result, size)
			done, rehydrated := s.restore(out)
			if rehydrated < 0 || rehydrated > int64(len(out)) {
				t.Fatalf("section %d: rehydrated %d of %d faults", si, rehydrated, len(out))
			}
			if done != nil && len(done) != len(out) {
				t.Fatalf("section %d: done bitmap length %d, want %d", si, len(done), len(out))
			}
		}
	})
}

// TestCheckpointReadRejectsMutations pins a handful of specific journal
// corruptions that the decoder must reject with an error (not accept, not
// panic): flipped digest, bytes cut from inside a complete range line, a
// missing header, out-of-order sections, and a garbage line.
func TestCheckpointReadRejectsMutations(t *testing.T) {
	valid := validJournal(t)
	if _, err := NewCheckpoint("").read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("specimen journal does not load: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"digest flip", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"digest":"`), []byte(`"digest":"f`), 1)
		}},
		{"bytes cut from a range line", func(b []byte) []byte {
			// A torn append only loses the file's tail; bytes missing from
			// the middle of a complete line are corruption.
			r := bytes.Index(b, []byte(`"results"`))
			start := bytes.LastIndexByte(b[:r], '\n') + 1
			mid := (start + r + bytes.IndexByte(b[r:], '\n')) / 2
			return append(b[:mid:mid], b[mid+4:]...)
		}},
		{"header dropped", func(b []byte) []byte {
			i := bytes.IndexByte(b, '\n')
			return b[i+1:]
		}},
		{"section renumbered", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"section":0`), []byte(`"section":7`), 1)
		}},
		{"garbage line", func(b []byte) []byte {
			return append(append([]byte{}, b...), []byte("}{nonsense\n")...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), valid...))
			if bytes.Equal(mut, valid) {
				t.Fatal("mutation did not change the journal — test is vacuous")
			}
			if _, err := NewCheckpoint("").read(bytes.NewReader(mut)); err == nil {
				t.Fatal("decoder accepted a corrupted journal")
			}
		})
	}
}

// TestValidJournalHasRangeLines guards the fuzz specimen itself: it must
// contain at least one results range, or the corpus seeds nothing useful.
func TestValidJournalHasRangeLines(t *testing.T) {
	if !bytes.Contains(validJournal(t), []byte(`"results"`)) {
		t.Fatal("specimen journal has no results lines")
	}
}
