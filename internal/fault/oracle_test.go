package fault

import (
	"reflect"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// TestOracleMatchesSim cross-checks the event-driven simulator against the
// brute-force oracle for every uncollapsed fault of the Figure-2b pipeline,
// requiring full Result equality — Detected, and FailObs as a plain
// slice, relying on the documented canonical ordering.
func TestOracleMatchesSim(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	pats := randomPatterns(c, 3, 42)
	// a short word exercises the lane-mask path
	short := c.NewPattern(7)
	short.FFVals[0] = ^uint64(0)
	pats = append(pats, short)

	sim := NewSim(c, pats)
	oracle := NewOracle(c, pats)
	u := NewUniverse(n)
	for _, f := range u.All {
		fast := sim.Run(f, false)
		slow := oracle.Run(f, false)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fault %v:\n  sim    %+v\n  oracle %+v", f, fast, slow)
		}
	}
}

// TestOracleMatchesSimCapped checks that detect-only runs agree: both
// engines report Detected alone.
func TestOracleMatchesSimCapped(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	pats := randomPatterns(c, 3, 17)
	sim := NewSim(c, pats)
	oracle := NewOracle(c, pats)
	u := NewUniverse(n)
	for _, f := range u.Collapsed {
		fast := sim.Run(f, true)
		slow := oracle.Run(f, true)
		if !reflect.DeepEqual(fast, slow) || fast.FailObs != nil {
			t.Fatalf("fault %v: sim %+v oracle %+v, want equal and Detected alone", f, fast, slow)
		}
	}
}

// TestFFFaultDirectObservation pins the fix for the FF-fault blind spot:
// a faulty FF whose Q net feeds another FF's D input (or a primary output)
// with no gate in between must report those observation points too, not
// just its own scan bit.
func TestFFFaultDirectObservation(t *testing.T) {
	n := netlist.New("ffdirect")
	a := n.Input("a")
	q0 := n.AddFF(a, "q0")
	n.AddFF(q0, "q1")     // q0 -> q1.D directly
	n.Output(q0, "po_q0") // q0 is also a primary output
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	p := c.NewPattern(64) // q0 loaded all-zero
	sim := NewSim(c, []*scan.Pattern{p})
	f := netlist.Fault{Gate: -1, FF: 0, Pin: -1, StuckAt1: true}
	res := sim.Run(f, false)
	// obs 0 = q0's own scan bit, obs 1 = q1 (captures q0), obs 2 = the PO
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.FailObs, want) {
		t.Fatalf("FailObs = %v, want %v", res.FailObs, want)
	}
	if !reflect.DeepEqual(res, NewOracle(c, []*scan.Pattern{p}).Run(f, false)) {
		t.Fatalf("sim and oracle disagree on direct FF observation")
	}
}

// TestFFFaultFeedbackLoop pins the fix for the own-bit over-report: when a
// faulty FF's effect propagates through logic back to its own D net, the
// scan cell still shifts out the stuck value (capture is overridden by the
// defect), so the D-net discrepancy must NOT be reported at the FF's own
// observation point on top of the seeded stuck-vs-good diff.
func TestFFFaultFeedbackLoop(t *testing.T) {
	n := netlist.New("ffloop")
	ff, q := n.DeclFF("q")
	n.BindFFD(ff, n.Not(q)) // q toggles every cycle
	n.Output(q, "po")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	p := c.NewPattern(64)
	p.FFVals[0] = 0xffffffff00000000 // half the lanes load 1, half 0
	sim := NewSim(c, []*scan.Pattern{p})
	oracle := NewOracle(c, []*scan.Pattern{p})
	for _, sa1 := range []bool{false, true} {
		f := netlist.Fault{Gate: -1, FF: 0, Pin: -1, StuckAt1: sa1}
		fast, slow := sim.Run(f, false), oracle.Run(f, false)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("sa1=%v:\n  sim    %+v\n  oracle %+v", sa1, fast, slow)
		}
		// good scan-out = ~loaded; stuck value differs on exactly half the
		// lanes at the scan cell, and the PO (sampled pre-capture) shows
		// the stuck value against the loaded one on the other half.
		if want := []int{0, 1}; !reflect.DeepEqual(fast.FailObs, want) {
			t.Fatalf("sa1=%v: FailObs = %v, want both obs points %v", sa1, fast.FailObs, want)
		}
	}
}

// TestSharedDNetObservation pins the fix for the multi-observer blind
// spot: one gate output captured by two FFs must fail at both scan bits.
func TestSharedDNetObservation(t *testing.T) {
	n := netlist.New("sharedD")
	a := n.Input("a")
	b := n.Input("b")
	x := n.And(a, b)
	n.AddFF(x, "q0")
	n.AddFF(x, "q1") // same D net as q0
	n.Output(x, "po")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	p := c.NewPattern(64)
	p.PIVals[0] = ^uint64(0)
	p.PIVals[1] = ^uint64(0) // good AND output = all ones
	sim := NewSim(c, []*scan.Pattern{p})
	f := netlist.Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: false}
	res := sim.Run(f, false)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.FailObs, want) {
		t.Fatalf("FailObs = %v, want %v", res.FailObs, want)
	}
	if !reflect.DeepEqual(res, NewOracle(c, []*scan.Pattern{p}).Run(f, false)) {
		t.Fatalf("sim and oracle disagree on shared D net")
	}
}
