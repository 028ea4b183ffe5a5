package fault

import (
	"reflect"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// TestResultOrdering pins the documented Result ordering contract: FailObs
// is ordered by word of first failure, then obs index. The circuit is
// built so that event discovery order (level order) disagrees with obs
// order — the low-numbered observation point sits behind the DEEP path —
// so an implementation that skipped the per-word sort would fail this
// test.
func TestResultOrdering(t *testing.T) {
	n := netlist.New("ordering")
	a := n.Input("a")
	src := n.Buf(a)
	// deep path: four inverter pairs, captured by FF0 (obs 0)
	deep := src
	for i := 0; i < 4; i++ {
		deep = n.Not(n.Not(deep))
	}
	n.AddFF(deep, "ff_deep")
	// shallow path: one buffer, captured by FF1 (obs 1)
	n.AddFF(n.Buf(src), "ff_shallow")
	n.Output(src, "po") // obs 2, failing at level 0
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	pats := []*scan.Pattern{c.NewPattern(64), c.NewPattern(64)}
	pats[1].PIVals[0] = ^uint64(0)
	sim := NewSim(c, pats)

	// stuck-at-1 on the source buffer propagates everywhere in word 0
	// (input all-zero) and nowhere in word 1 (input all-one).
	res := sim.Run(netlist.Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: true}, false)
	if !res.Detected {
		t.Fatal("fault undetected")
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.FailObs, want) {
		t.Fatalf("FailObs = %v, want %v (obs-index order, not discovery order)", res.FailObs, want)
	}
}

// TestResultOrderingMultiWord checks the FailObs "word of first failure"
// rule: an obs point failing first in word 1 lists after the obs points
// that already failed in word 0, regardless of index.
func TestResultOrderingMultiWord(t *testing.T) {
	n := netlist.New("multiword")
	a := n.Input("a")
	b := n.Input("b")
	n.AddFF(n.Buf(a), "fa") // obs 0, fails when a-path differs
	n.AddFF(n.Buf(b), "fb") // obs 1
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	// word 0 excites only the b path; word 1 excites only the a path
	w0 := c.NewPattern(64)
	w0.PIVals[1] = ^uint64(0)
	w1 := c.NewPattern(64)
	w1.PIVals[0] = ^uint64(0)
	sim := NewSim(c, []*scan.Pattern{w0, w1})

	// stuck-at-0 on gate 1 (buf of b) fails obs 1 in word 0 only;
	// stuck-at-0 on gate 0 (buf of a) fails obs 0 in word 1 only.
	// A fault affecting both: use input-pin faults on each buf.
	fB := netlist.Fault{Gate: 1, FF: -1, Pin: -1, StuckAt1: false}
	if got, want := sim.Run(fB, false).FailObs, []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("b-path FailObs = %v, want %v", got, want)
	}
	if !sim.RunWord(fB, 0, false).Detected || sim.RunWord(fB, 1, false).Detected {
		t.Fatal("b-path must fail in word 0 only")
	}
	fA := netlist.Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: false}
	if got, want := sim.Run(fA, false).FailObs, []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a-path FailObs = %v, want %v", got, want)
	}
	if sim.RunWord(fA, 0, false).Detected || !sim.RunWord(fA, 1, false).Detected {
		t.Fatal("a-path must fail in word 1 only")
	}
}
