package atpg

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
)

// runLockstep runs PODEM on f through the reused searcher p with the
// lockstep hook armed: after every incremental imply, both planes must
// equal a from-scratch implyFull of the same assignment on every region
// net, so the first imply also checks that reset left nothing of the
// previous fault behind. Nets outside the region are never implied;
// TestImplyRegionOnly holds them. It returns the verdict and the number of
// implies checked.
func runLockstep(t *testing.T, p *searcher, f netlist.Fault) (PodemResult, int) {
	t.Helper()
	good := make([]V3, p.n.NumNets())
	bad := make([]V3, p.n.NumNets())
	checks, failed := 0, false
	p.afterImply = func() {
		checks++
		if failed {
			return
		}
		p.implyFull(good, bad)
		for net := range good {
			if !regionNet(p, netlist.NetID(net)) {
				continue
			}
			if good[net] != p.good[net] || bad[net] != p.bad[net] {
				t.Errorf("fault %v, imply %d: net %d incremental good/bad %v/%v, full %v/%v",
					f, checks, net, p.good[net], p.bad[net], good[net], bad[net])
				failed = true
				return
			}
		}
	}
	_, res := p.run(f)
	return res, checks
}

// TestImplyLockstep pins event-driven implication to the full reference
// pass at every PODEM decision: on random circuits (every collapsed fault)
// and on a sample of the small Baseline and Rescue designs' faults. Each
// circuit's faults run through one reused searcher, as GenerateFlow's
// workers do.
func TestImplyLockstep(t *testing.T) {
	verdicts := map[PodemResult]int{}
	implies := 0
	for seed := uint64(0); seed < 40; seed++ {
		n := netlist.Random(netlist.RandomConfig{Seed: seed, Gates: 20 + int(seed)*3, FFs: 1 + int(seed%6),
			Inputs: 1 + int(seed%5), Outputs: 1 + int(seed%3), MaxFanIn: 2 + int(seed%4)})
		p := newSearcher(n, 30)
		for _, f := range fault.NewUniverse(n).Collapsed {
			res, k := runLockstep(t, p, f)
			verdicts[res]++
			implies += k
		}
		if t.Failed() {
			return
		}
	}
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		d, err := rtl.Build(rtl.Small(), v)
		if err != nil {
			t.Fatal(err)
		}
		u := fault.NewUniverse(d.N)
		p := newSearcher(d.N, 20)
		for i := 0; i < len(u.Collapsed); i += 97 {
			res, k := runLockstep(t, p, u.Collapsed[i])
			verdicts[res]++
			implies += k
		}
		if t.Failed() {
			return
		}
	}
	// The check must have exercised backtracking, not just easy hits.
	if verdicts[Detected] == 0 || verdicts[Untestable]+verdicts[Aborted] == 0 {
		t.Fatalf("lockstep saw verdicts %v: want both detections and backtracked searches", verdicts)
	}
	t.Logf("%d implies checked, verdicts %v", implies, verdicts)
}

// TestSearcherCone pins the forward cone a searcher collects at reset:
// gate-ID order, and exactly the gates a fixpoint over the gate records
// reaches from the fault site (for an FF-output fault, from its Q net), on
// a hand-built circuit and on every collapsed fault of random circuits.
func TestSearcherCone(t *testing.T) {
	n := netlist.New("cone")
	a, b := n.Input("a"), n.Input("b")
	x := n.And(a, b)           // gate 0
	y := n.Or(x, a)            // gate 1, in the cone of gate 0
	z := n.Xor(a, b)           // gate 2, outside it
	n.Output(n.And(y, z), "w") // gate 3, in it
	p := newSearcher(n, 1)
	p.reset(netlist.Fault{Gate: 0, FF: -1, Pin: -1})
	if want := []netlist.GateID{0, 1, 3}; !slices.Equal(p.cone, want) {
		t.Fatalf("cone = %v, want %v", p.cone, want)
	}
	for seed := uint64(0); seed < 20; seed++ {
		n := netlist.Random(netlist.RandomConfig{Seed: seed, Gates: 60, FFs: 5})
		p := newSearcher(n, 1)
		for _, f := range fault.NewUniverse(n).Collapsed {
			p.reset(f)
			if want := reachable(n, f); !slices.Equal(p.cone, want) {
				t.Fatalf("seed %d, fault %v: cone %v, want %v", seed, f, p.cone, want)
			}
		}
	}
}

// regionNet reports whether imply keeps net up to date for p's fault: a
// PI or scan-cell Q net, or the output of a gate in the fault's region.
func regionNet(p *searcher, net netlist.NetID) bool {
	d := p.n.DriverGate(net)
	return p.piIndex[net] >= 0 || d >= 0 && p.region[d] == p.regionEp
}

// TestSearcherRegion pins the region a searcher marks at reset: exactly the
// gates a fan-in fixpoint over the gate records reaches from the forward
// cone and, for an FF-output fault, from its D driver — on a hand-built
// circuit and on every collapsed fault of random circuits with FFs.
func TestSearcherRegion(t *testing.T) {
	n := netlist.New("region")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	x := n.And(a, b)            // gate 0: fault site
	y := n.Not(c)               // gate 1: side input of the cone
	n.Output(n.Or(x, y), "z")   // gate 2: the cone
	w := n.Xor(b, c)            // gate 3: feeds the FF's D driver
	n.Output(n.Nand(w, a), "v") // gate 4: read by no region
	q := n.AddFF(n.Buf(w), "q") // gate 5: the FF's D driver
	n.Output(n.And(q, a), "u")  // gate 6: the FF's cone
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	p := newSearcher(n, 1)
	for _, tc := range []struct {
		f    netlist.Fault
		want []netlist.GateID
	}{
		{netlist.Fault{Gate: 0, FF: -1, Pin: -1}, []netlist.GateID{0, 1, 2}},
		{netlist.Fault{Gate: -1, FF: 0, Pin: -1}, []netlist.GateID{3, 5, 6}},
	} {
		p.reset(tc.f)
		if got := markedRegion(p); !slices.Equal(got, tc.want) {
			t.Fatalf("fault %v: region %v, want %v", tc.f, got, tc.want)
		}
	}
	// Count faults whose region the fan-in walk grew past the cone, and FF
	// faults whose D driver lies outside their cone, so neither seed is
	// left untested.
	grown, dSeeded := 0, 0
	for seed := uint64(0); seed < 20; seed++ {
		n := netlist.Random(netlist.RandomConfig{Seed: seed, Gates: 60, FFs: 5})
		p := newSearcher(n, 1)
		for _, f := range fault.NewUniverse(n).Collapsed {
			p.reset(f)
			want := fanInRegion(n, f)
			if got := markedRegion(p); !slices.Equal(got, want) {
				t.Fatalf("seed %d, fault %v: region %v, want %v", seed, f, got, want)
			}
			if len(want) > len(p.cone) {
				grown++
			}
			if f.Gate < 0 {
				if d := n.DriverGate(n.FFs[f.FF].D); d >= 0 && !slices.Contains(p.cone, d) {
					dSeeded++
				}
			}
		}
	}
	if grown == 0 || dSeeded == 0 {
		t.Fatalf("%d regions grew past their cone and %d FF faults seeded a D driver outside it: want both", grown, dSeeded)
	}
}

// markedRegion lists the gates p marked as its fault's region, in gate-ID
// order.
func markedRegion(p *searcher) []netlist.GateID {
	var r []netlist.GateID
	for g, ep := range p.region {
		if ep == p.regionEp {
			r = append(r, netlist.GateID(g))
		}
	}
	return r
}

// fanInRegion is the reference region: a fixpoint over the gate records
// that adds the driver of every input of a gate already in, seeded from
// the forward cone and an FF-output fault's D driver, in gate-ID order.
func fanInRegion(n *netlist.Netlist, f netlist.Fault) []netlist.GateID {
	in := make([]bool, len(n.Gates))
	for _, g := range reachable(n, f) {
		in[g] = true
	}
	if f.Gate < 0 {
		if d := n.DriverGate(n.FFs[f.FF].D); d >= 0 {
			in[d] = true
		}
	}
	for grew := true; grew; {
		grew = false
		for gi, g := range n.Gates {
			for _, net := range g.In {
				if d := n.DriverGate(net); in[gi] && d >= 0 && !in[d] {
					in[d], grew = true, true
				}
			}
		}
	}
	var r []netlist.GateID
	for gi, ok := range in {
		if ok {
			r = append(r, netlist.GateID(gi))
		}
	}
	return r
}

// TestImplyRegionOnly pins the region trim from both sides, on every
// collapsed fault of the lockstep random circuits and of both small
// designs, each circuit's faults through one reused searcher:
//   - (a) after every imply of a plain run, every net outside the region
//     is still X in both planes, so imply never evaluates a gate outside it;
//   - (b) a run with every such net preset to a fake error (good One,
//     faulty Zero) before the search returns the plain run's verdict and
//     cube, so the search never reads one.
func TestImplyRegionOnly(t *testing.T) {
	check := func(name string, n *netlist.Netlist, maxBacktracks int) {
		p := newSearcher(n, maxBacktracks)
		outside := make([]bool, n.NumNets()) // the current fault's non-region nets
		for _, f := range fault.NewUniverse(n).Collapsed {
			p.afterReset = func() {
				for net := range outside {
					outside[net] = !regionNet(p, netlist.NetID(net))
				}
			}
			p.afterImply = func() {
				good, bad := p.good[:len(outside)], p.bad[:len(outside)]
				for net, out := range outside {
					if out && (good[net] != X || bad[net] != X) {
						t.Fatalf("%s, fault %v: net %d outside the region implied to good/bad %v/%v",
							name, f, net, good[net], bad[net])
					}
				}
			}
			cube, res := p.run(f)
			p.afterImply = nil
			p.afterReset = func() {
				for net, out := range outside {
					if out {
						p.good[net], p.bad[net] = One, Zero
					}
				}
			}
			pc, pres := p.run(f)
			if pres != res || !slices.Equal(pc.PI, cube.PI) || !slices.Equal(pc.FF, cube.FF) {
				t.Fatalf("%s, fault %v: poisoned run %v PI=%v FF=%v, plain run %v PI=%v FF=%v",
					name, f, pres, pc.PI, pc.FF, res, cube.PI, cube.FF)
			}
		}
	}
	for seed := uint64(0); seed < 40; seed++ {
		n := netlist.Random(netlist.RandomConfig{Seed: seed, Gates: 20 + int(seed)*3, FFs: 1 + int(seed%6),
			Inputs: 1 + int(seed%5), Outputs: 1 + int(seed%3), MaxFanIn: 2 + int(seed%4)})
		check(fmt.Sprintf("seed %d", seed), n, 30)
	}
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		d, err := rtl.Build(rtl.Small(), v)
		if err != nil {
			t.Fatal(err)
		}
		check(v.String(), d.N, 20)
	}
}

// reachable is the reference forward cone: a fixpoint over the gate
// records, in gate-ID order.
func reachable(n *netlist.Netlist, f netlist.Fault) []netlist.GateID {
	in := make([]bool, len(n.Gates))
	src := netlist.InvalidNet
	if f.Gate >= 0 {
		in[f.Gate] = true
	} else {
		src = n.FFs[f.FF].Q
	}
	for grew := true; grew; {
		grew = false
		for gi, g := range n.Gates {
			for _, net := range g.In {
				if d := n.DriverGate(net); !in[gi] && (net == src || d >= 0 && in[d]) {
					in[gi], grew = true, true
				}
			}
		}
	}
	var cone []netlist.GateID
	for gi, ok := range in {
		if ok {
			cone = append(cone, netlist.GateID(gi))
		}
	}
	return cone
}

// TestGenerateFlowPinnedCounts pins the small Table 3 ATPG outcome on both
// designs: the counts and a digest of the test set itself. Drift in
// PODEM's decision order (objective, backtrace) moves them even when every
// verdict stays sound, and so does a verdict committed out of fault order
// at any worker count.
func TestGenerateFlowPinnedCounts(t *testing.T) {
	want := map[rtl.Variant][4]int{ // vectors, detected, untestable, aborted
		rtl.Baseline:     {2635, 13325, 419, 48},
		rtl.RescueDesign: {3140, 17737, 1095, 34},
	}
	wantDigest := map[rtl.Variant]uint64{
		rtl.Baseline:     0xc29665ba49da32cb,
		rtl.RescueDesign: 0xf1060a1d79657cb8,
	}
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		d, err := rtl.Build(rtl.Small(), v)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scan.Insert(d.N, 1)
		if err != nil {
			t.Fatal(err)
		}
		u := fault.NewUniverse(d.N)
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultGenConfig()
			cfg.Workers = workers
			g, err := GenerateFlow(context.Background(), c, u, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := [4]int{g.Vectors, g.Detected, g.Untestable, g.Aborted}
			if got != want[v] {
				t.Errorf("%v, %d workers: vectors/detected/untestable/aborted = %v, want %v", v, workers, got, want[v])
			}
			if d := patternDigest(g.Sim.Patterns); d != wantDigest[v] {
				t.Errorf("%v, %d workers: test set digest %016x, want %016x", v, workers, d, wantDigest[v])
			}
			// Every drop campaign is one pattern word: one word-sim per
			// fault-sim.
			if g.Stats.Words != g.Stats.Faults {
				t.Errorf("%v, %d workers: %d word-sims for %d fault-sims, want equal", v, workers, g.Stats.Words, g.Stats.Faults)
			}
		}
	}
}

// TestPodemFrontierOrder: objective advances the first D-frontier gate in
// gate-ID order. Here the two frontier gates' ID order is the reverse of
// their level (and topological) order, so the cube shows which was taken.
func TestPodemFrontierOrder(t *testing.T) {
	n := netlist.New("frontier")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	s := n.Buf(a)                          // gate 0: fault site
	hi := n.And(s, s)                      // gate 1: pin 1 rewired below
	deep := n.Not(n.Not(n.Not(b)))         // gates 2-4
	lo := n.And(s, c)                      // gate 5: level 1
	n.Gates[n.DriverGate(hi)].In[1] = deep // gate 1 now sits at level 3
	n.Output(hi, "hi")
	n.Output(lo, "lo")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	cube, res := Podem(n, netlist.Fault{Gate: 0, FF: -1, Pin: -1}, 10)
	if res != Detected {
		t.Fatalf("Buf sa0 classified %v, want detected", res)
	}
	// Gate 1 first: sensitize it through b (three inversions), leave c X.
	if want := []V3{One, Zero, X}; !slices.Equal(cube.PI, want) {
		t.Fatalf("cube PI = %v, want %v (frontier advanced through gate 5, not gate 1)", cube.PI, want)
	}
}

// patternDigest is an FNV-1a hash over every lane count and PI/FF word of
// a pattern set: equal digests mean byte-identical test sets.
func patternDigest(pats []*scan.Pattern) uint64 {
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= w >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	for _, p := range pats {
		mix(uint64(p.Lanes))
		for _, w := range p.PIVals {
			mix(w)
		}
		for _, w := range p.FFVals {
			mix(w)
		}
	}
	return h
}

// TestPodemFFFaultBlockedCapture: an FF whose D is tied cannot expose its
// own Q fault by capture, but the fault still propagates combinationally
// from Q to a primary output. PODEM must activate it at Q rather than
// declare it untestable once the capture objective dead-ends.
func TestPodemFFFaultBlockedCapture(t *testing.T) {
	n := netlist.New("tiedD")
	a := n.Input("a")
	q := n.AddFF(n.Const(true), "q")
	n.Output(n.And(a, q), "o")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	f := netlist.Fault{Gate: -1, FF: 0, Pin: -1, StuckAt1: true}
	cube, res := Podem(n, f, 50)
	if res != Detected {
		t.Fatalf("FF0/Q sa1 classified %v, want detected", res)
	}
	if !fault.NewSim(c, []*scan.Pattern{applyCube(c, cube)}).Run(f, true).Detected {
		t.Fatalf("cube PI=%v FF=%v does not detect FF0/Q sa1", cube.PI, cube.FF)
	}
}

// BenchmarkSearcher measures PODEM per fault through one reused searcher,
// as a GenerateFlow worker runs it; BenchmarkPodem in the root package is
// the one-shot reference that builds its state for every fault.
func BenchmarkSearcher(b *testing.B) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.NewUniverse(d.N)
	p := newSearcher(d.N, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.run(u.Collapsed[i%len(u.Collapsed)])
	}
}
