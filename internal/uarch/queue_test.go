package uarch

import (
	"testing"

	"rescue/internal/isa"
	"rescue/internal/workload"
)

// mkSim builds a Rescue simulator without running it, for white-box queue
// tests.
func mkSim(t *testing.T, p Params) *Sim {
	t.Helper()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, prof)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addEntry dispatches a fake instruction directly into the int queue.
func addEntry(s *Sim, class isa.Class) int {
	rob := s.robTail
	s.robTail = (s.robTail + 1) % len(s.rob)
	s.robCount++
	s.seq++
	s.rob[rob] = robEntry{
		inst:    isa.Inst{Class: class},
		seq:     s.seq,
		state:   inQueue,
		present: true, resultReady: 0,
		src1Rob: -1, src2Rob: -1,
	}
	s.intQ.insert(rob)
	return rob
}

func TestRescueInsertGoesToNewHalf(t *testing.T) {
	s := mkSim(t, RescueParams())
	rob := addEntry(s, isa.IntALU)
	if len(s.intQ.new.entries) != 1 || s.intQ.new.entries[0] != rob {
		t.Fatalf("entry not in new half: old=%v new=%v", s.intQ.old.entries, s.intQ.new.entries)
	}
}

func TestCompactionIsCycleSplit(t *testing.T) {
	s := mkSim(t, RescueParams())
	rob := addEntry(s, isa.IntALU)
	s.rob[rob].resultReady = never // keep it waiting so it can move

	// cycle 1 of maintenance: the old half's request is not yet latched,
	// so nothing moves new -> buffer
	s.intQ.reqPrev = false
	s.compact(s.intQ)
	if len(s.intQ.buf) != 0 {
		t.Fatal("moved to buffer without a latched request")
	}
	// the request is now latched (old half has space)
	if !s.intQ.reqPrev {
		t.Fatal("request should be latched after a cycle with free old-half slots")
	}
	// cycle 2: the entry moves into the buffer...
	s.compact(s.intQ)
	if len(s.intQ.buf) != 1 || len(s.intQ.new.entries) != 0 {
		t.Fatalf("buffer=%v new=%v after request", s.intQ.buf, s.intQ.new.entries)
	}
	// ...and cycle 3 lands it in the old half
	s.compact(s.intQ)
	if len(s.intQ.old.entries) != 1 {
		t.Fatalf("old=%v after two compaction cycles", s.intQ.old.entries)
	}
}

func TestCompactionBufferBounded(t *testing.T) {
	p := RescueParams()
	s := mkSim(t, p)
	for i := 0; i < p.CompBufSlots+3; i++ {
		rob := addEntry(s, isa.IntALU)
		s.rob[rob].resultReady = never
	}
	s.intQ.reqPrev = true
	s.compact(s.intQ)
	if len(s.intQ.buf) > p.CompBufSlots {
		t.Fatalf("buffer %d exceeds %d slots", len(s.intQ.buf), p.CompBufSlots)
	}
}

func TestDeadNewHalfInsertsIntoOld(t *testing.T) {
	p := RescueParams()
	p.Degr.IntIQHalvesDown = 1
	s := mkSim(t, p)
	rob := addEntry(s, isa.IntALU)
	if len(s.intQ.old.entries) != 1 || s.intQ.old.entries[0] != rob {
		t.Fatalf("entry should bypass the dead new half: old=%v new=%v",
			s.intQ.old.entries, s.intQ.new.entries)
	}
}

func TestQueueCapacityRescue(t *testing.T) {
	p := RescueParams()
	s := mkSim(t, p)
	newCap := p.IntIQSize/2 - p.CompBufSlots
	for i := 0; i < newCap; i++ {
		if !s.intQ.hasSpace() {
			t.Fatalf("space exhausted after %d inserts, cap %d", i, newCap)
		}
		addEntry(s, isa.IntALU)
	}
	if s.intQ.hasSpace() {
		t.Fatal("new half should be full")
	}
}

func TestBaselineQueueSingleList(t *testing.T) {
	s := mkSim(t, DefaultParams())
	for i := 0; i < DefaultParams().IntIQSize; i++ {
		if !s.intQ.hasSpace() {
			t.Fatalf("baseline queue full after %d", i)
		}
		addEntry(s, isa.IntALU)
	}
	if s.intQ.hasSpace() {
		t.Fatal("baseline queue should be full at IntIQSize")
	}
	if len(s.intQ.new.entries) != 0 {
		t.Fatal("baseline keeps a single age-ordered list")
	}
}

func TestSelectOldestFirst(t *testing.T) {
	s := mkSim(t, DefaultParams())
	var robs []int
	for i := 0; i < 8; i++ {
		robs = append(robs, addEntry(s, isa.IntALU))
	}
	s.now = 10
	budget := s.fullBudget()
	sel := s.selectHalf(nil, &s.intQ.old, 4, &budget)
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
	for i := 0; i < 4; i++ {
		if sel[i] != robs[i] {
			t.Fatalf("selection not age-ordered: %v vs %v", sel, robs[:4])
		}
	}
}

func TestFUBudgetClasses(t *testing.T) {
	p := DefaultParams()
	prof, _ := workload.ByName("gzip")
	s, _ := New(p, prof)
	b := s.fullBudget()
	// 4 int ways: 4 ALU ops
	for i := 0; i < 4; i++ {
		if !b.take(isa.IntALU) {
			t.Fatalf("ALU slot %d refused", i)
		}
	}
	if b.take(isa.IntALU) {
		t.Fatal("fifth ALU op must be refused")
	}
	b = s.fullBudget()
	// 2 memory ports (one per int group)
	if !b.take(isa.Load) || !b.take(isa.Store) {
		t.Fatal("two memory ports expected")
	}
	if b.take(isa.Load) {
		t.Fatal("third memory op must be refused")
	}
	// degraded: one int group down -> 1 memory port
	p2 := RescueParams()
	p2.Degr.IntGroupsDisabled = 1
	s2, _ := New(p2, prof)
	b2 := s2.fullBudget()
	if !b2.take(isa.Load) {
		t.Fatal("one port should remain")
	}
	if b2.take(isa.Load) {
		t.Fatal("second port should be gone")
	}
}

// TestStaleCompletionIgnored pins the completion heap's re-check: an
// instruction squashed back to its queue and reissued before its first
// completion comes due must not finish at that stale cycle. (Rare in real
// streams: it takes an integer divide in a miss shadow whose load hits
// the L2.)
func TestStaleCompletionIgnored(t *testing.T) {
	s := mkSim(t, RescueParams())
	rob := addEntry(s, isa.IntDiv)
	e := &s.rob[rob]
	s.now = 10
	s.issueOne(rob) // first completion due at 30
	e.state = inQueue
	s.now = 15
	s.issueOne(rob) // reissued after the squash: due at 35
	s.now = 30
	s.complete()
	if e.state != issued {
		t.Fatalf("state %d at cycle 30: the squashed issue's completion was applied", e.state)
	}
	s.now = 35
	s.complete()
	if e.state != done {
		t.Fatalf("state %d at cycle 35, want done", e.state)
	}
}
