package fault

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

func buildPipe() *netlist.Netlist {
	n := netlist.New("fig2b")
	a := n.Input("a")
	b := n.Input("b")
	n.Component("LCM")
	m := n.Nand(a, b)
	srs := n.AddFF(m, "SRS")
	n.Component("LCX")
	x := n.Xor(srs, a)
	n.Component("LCY")
	y := n.Or(srs, b)
	n.Component("SRT")
	sx := n.AddFF(x, "SRT.x")
	sy := n.AddFF(y, "SRT.y")
	n.Component("LCN")
	o := n.And(sx, sy)
	n.Output(o, "out")
	return n
}

func randomPatterns(c *scan.Chain, words int, seed int64) []*scan.Pattern {
	r := rand.New(rand.NewSource(seed))
	var out []*scan.Pattern
	for w := 0; w < words; w++ {
		p := c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = r.Uint64()
		}
		for i := range p.PIVals {
			p.PIVals[i] = r.Uint64()
		}
		out = append(out, p)
	}
	return out
}

func TestCollapsing(t *testing.T) {
	n := netlist.New("c")
	a := n.Input("a")
	b := n.Input("b")
	o := n.And(a, b)
	n.AddFF(o, "q")
	n.Output(o, "o")
	u := NewUniverse(n)
	// AND gate: 6 faults -> out sa0 (+= in0 sa0, in1 sa0), out sa1, in0 sa1,
	// in1 sa1 => 4 classes; FF: 2 classes
	if u.CountAll() != 8 {
		t.Fatalf("all = %d, want 8", u.CountAll())
	}
	if u.CountCollapsed() != 6 {
		t.Fatalf("collapsed = %d, want 6", u.CountCollapsed())
	}
	// in0 sa0 must share a class with out sa0
	var outSA0, in0SA0 int = -1, -1
	for i, f := range u.All {
		if f.Gate == 0 && f.Pin == -1 && !f.StuckAt1 {
			outSA0 = u.ClassOf(i)
		}
		if f.Gate == 0 && f.Pin == 0 && !f.StuckAt1 {
			in0SA0 = u.ClassOf(i)
		}
	}
	if outSA0 != in0SA0 || outSA0 < 0 {
		t.Fatalf("AND in0-sa0 class %d != out-sa0 class %d", in0SA0, outSA0)
	}
}

func TestCollapsingInverter(t *testing.T) {
	n := netlist.New("inv")
	a := n.Input("a")
	o := n.Not(a)
	n.AddFF(o, "q")
	n.Output(o, "o")
	u := NewUniverse(n)
	// NOT: 4 faults -> 2 classes (in sa0 == out sa1, in sa1 == out sa0); FF 2
	if u.CountCollapsed() != 4 {
		t.Fatalf("collapsed = %d, want 4", u.CountCollapsed())
	}
}

// TestSimMatchesFullEval cross-checks the cone-restricted fault simulator
// against brute-force full-netlist evaluation for every fault site.
func TestSimMatchesFullEval(t *testing.T) {
	n := buildPipe()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	pats := randomPatterns(c, 3, 42)
	sim := NewSim(c, pats)
	u := NewUniverse(n)

	for _, f := range u.All {
		fast := sim.Run(f, false)
		// brute force
		slowDetected := false
		slowObs := map[int]bool{}
		for _, p := range pats {
			good := c.ApplyTest(p, netlist.NoFault)
			bad := c.ApplyTest(p, f)
			for oi := range good {
				if (good[oi]^bad[oi])&p.LaneMask() != 0 {
					slowDetected = true
					slowObs[oi] = true
				}
			}
		}
		if fast.Detected != slowDetected {
			t.Fatalf("fault %v: fast detected=%v slow=%v", f, fast.Detected, slowDetected)
		}
		fastObs := map[int]bool{}
		for _, o := range fast.FailObs {
			fastObs[o] = true
		}
		if len(fastObs) != len(slowObs) {
			t.Fatalf("fault %v: fast obs %v slow obs %v", f, fastObs, slowObs)
		}
		for o := range slowObs {
			if !fastObs[o] {
				t.Fatalf("fault %v: missing failing obs %d", f, o)
			}
		}
	}
}

func TestIsolationToComponent(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	pats := randomPatterns(c, 4, 7)
	sim := NewSim(c, pats)
	bitComp := c.BitComp()
	u := NewUniverse(n)
	for _, f := range u.Collapsed {
		if f.Gate < 0 {
			continue // FF faults are chipkill in the paper's accounting
		}
		res := sim.Run(f, false)
		if !res.Detected {
			continue
		}
		fc := n.FaultSiteComp(f)
		for _, oi := range res.FailObs {
			comps := bitComp[oi]
			found := false
			for _, cc := range comps {
				if cc == fc {
					found = true
				}
			}
			if !found {
				t.Errorf("fault %v in %s observed at obs %d whose cone is %v",
					f, n.CompName(fc), oi, comps)
			}
		}
	}
}

// TestDetectOnlyResult pins the detect-only Result shape: a detected
// fault reports Detected alone, with no syndrome behind it.
func TestDetectOnlyResult(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	pats := randomPatterns(c, 4, 9)
	sim := NewSim(c, pats)
	f := netlist.Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: true}
	if full := sim.Run(f, false); len(full.FailObs) == 0 {
		t.Fatal("fixture fault is undetected; the test would be vacuous")
	}
	if res := sim.Run(f, true); !reflect.DeepEqual(res, Result{Detected: true}) {
		t.Fatalf("detect-only run returned %+v, want Detected alone", res)
	}
}

// TestScratchWholeCacheLines pins simScratch to whole 64-byte cache lines.
// Campaign workers' scratches are allocated side by side; when one shared
// a line with its neighbour, the two workers' counter writes made a
// two-worker small dictionary build about 30% slower.
func TestScratchWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	if sz := unsafe.Sizeof(simScratch{}); sz%64 != 0 {
		t.Fatalf("simScratch is %d bytes, not a whole number of 64-byte cache lines", sz)
	}
}
