package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	// root [0,10]: a [1,4] and b [3,6] overlap on [3,4]; c [8,12] spills
	// past the root's end; a has its own child [2,3].
	a := &Span{Name: "a", Start: 1, Dur: 3, Children: []*Span{{Name: "a1", Start: 2, Dur: 1}}}
	root := &Span{Name: "root", Start: 0, Dur: 10, Children: []*Span{
		a,
		{Name: "b", Start: 3, Dur: 3},
		{Name: "c", Start: 8, Dur: 4},
	}}
	fillSelf(root)
	// Covered: [1,6] from a and b, [8,10] from c clipped: 5 + 2 = 7.
	if !near(root.Self, 3) {
		t.Errorf("root self = %g, want 3", root.Self)
	}
	if !near(a.Self, 2) {
		t.Errorf("a self = %g, want 2", a.Self)
	}
	if !near(attributed(root), 0.7) {
		t.Errorf("attributed = %g, want 0.7", attributed(root))
	}
	total, self := layerTimes(root)
	if !near(total["a"], 3) || !near(self["a"], 2) || !near(total["a1"], 1) || !near(self["c"], 4) {
		t.Errorf("layer times: total %v self %v", total, self)
	}
	if _, ok := total["root"]; ok {
		t.Errorf("the root is not a layer: %v", total)
	}
}

func TestSelfTimeNestedAndDisjoint(t *testing.T) {
	// Children covering the whole root, back to back, leave no self time;
	// identical children count once.
	root := &Span{Name: "root", Dur: 4, Children: []*Span{
		{Name: "x", Start: 0, Dur: 2},
		{Name: "y", Start: 2, Dur: 2},
		{Name: "y", Start: 2, Dur: 2},
	}}
	fillSelf(root)
	if !near(root.Self, 0) {
		t.Errorf("root self = %g, want 0", root.Self)
	}
}

func TestTracerRecordsOffsets(t *testing.T) {
	origin := time.Unix(100, 0)
	tr := &tracer{origin: origin, root: &Span{Name: "job"}}
	tr.add(tr.root, "queue", origin.Add(time.Second), origin.Add(3*time.Second))
	tr.add(tr.root, "run", origin.Add(2*time.Second), origin.Add(5*time.Second))
	root := tr.finish(origin.Add(6 * time.Second))
	if !near(root.Dur, 6) || !near(root.Children[1].Start, 2) || !near(root.Self, 2) {
		t.Errorf("tree %+v", root)
	}
}
