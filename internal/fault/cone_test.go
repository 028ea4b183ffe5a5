package fault

import (
	"reflect"
	"sort"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// bruteCone is an independent reference for the cone builder: a plain BFS
// over the reader relation from net, returning the transitive fan-out
// gate set and the reachable observation points (netlist.ObsPoints order:
// FFs by D net first, then primary outputs).
func bruteCone(n *netlist.Netlist, net netlist.NetID) (gates []netlist.GateID, obs []int) {
	readers := map[netlist.NetID][]netlist.GateID{}
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].In {
			readers[in] = append(readers[in], netlist.GateID(gi))
		}
	}
	inCone := map[netlist.GateID]bool{}
	frontier := []netlist.NetID{net}
	seenNet := map[netlist.NetID]bool{net: true}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, g := range readers[cur] {
			if inCone[g] {
				continue
			}
			inCone[g] = true
			gates = append(gates, g)
			out := n.Gates[g].Out
			if !seenNet[out] {
				seenNet[out] = true
				frontier = append(frontier, out)
			}
		}
	}
	sort.Slice(gates, func(i, j int) bool { return gates[i] < gates[j] })
	for fi := 0; fi < n.NumFFs(); fi++ {
		if seenNet[n.FFs[fi].D] {
			obs = append(obs, fi)
		}
	}
	for oi, out := range n.Outputs {
		if seenNet[out] {
			obs = append(obs, n.NumFFs()+oi)
		}
	}
	return gates, obs
}

// checkConesAgainstBrute compares every net's stored cone and reachable
// observation set against the brute-force BFS, including the overflow
// predicate: a cone is withheld exactly when its true size exceeds the
// threshold (or clipping is disabled).
func checkConesAgainstBrute(t testing.TB, s *Sim, n *netlist.Netlist, threshold int) {
	t.Helper()
	for net := netlist.NetID(0); int(net) < n.NumNets(); net++ {
		bg, bo := bruteCone(n, net)
		cone, overflow := s.Cone(net)
		wantOverflow := threshold <= 0 || len(bg) > threshold
		if overflow != wantOverflow {
			t.Fatalf("net %d: overflow=%v, brute size %d vs threshold %d wants %v",
				net, overflow, len(bg), threshold, wantOverflow)
		}
		if overflow {
			if cone != nil || s.ConeObs(net) != nil {
				t.Fatalf("net %d: overflowed cone still stores data", net)
			}
			continue
		}
		sorted := append([]netlist.GateID(nil), cone...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if !reflect.DeepEqual(sorted, bg) && !(len(sorted) == 0 && len(bg) == 0) {
			t.Fatalf("net %d: cone gates %v, brute %v", net, sorted, bg)
		}
		// The stored order must be a valid evaluation schedule: levels
		// non-decreasing, so every gate follows the cone gates feeding it.
		for i := 1; i < len(cone); i++ {
			if s.fl.Level[cone[i-1]] > s.fl.Level[cone[i]] {
				t.Fatalf("net %d: cone not level-sorted at %d: %v", net, i, cone)
			}
		}
		if got := s.ConeObs(net); !reflect.DeepEqual(got, bo) && !(len(got) == 0 && len(bo) == 0) {
			t.Fatalf("net %d: cone obs %v, brute %v", net, got, bo)
		}
	}
}

func randomSimForCone(t testing.TB, seed uint64, threshold int) (*Sim, *netlist.Netlist) {
	t.Helper()
	cfg := netlist.RandomConfig{
		Seed:     seed,
		Gates:    1 + int(seed%57),
		FFs:      1 + int((seed>>8)%9),
		Inputs:   1 + int((seed>>16)%5),
		Outputs:  1 + int((seed>>24)%4),
		MaxFanIn: 2 + int((seed>>32)%4),
	}
	n := netlist.Random(cfg)
	c, err := scan.Insert(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.NewPattern(64)
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range p.FFVals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.FFVals[i] = x
	}
	for i := range p.PIVals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.PIVals[i] = x
	}
	return NewSimCone(c, []*scan.Pattern{p}, threshold), n
}

// TestConeMatchesBruteForce pins the CSR cone builder against the BFS
// reference over random circuits at thresholds spanning disabled, mostly
// overflowing, mixed, and never overflowing.
func TestConeMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		for _, threshold := range []int{0, 1, 2, 7, 1024} {
			s, n := randomSimForCone(t, seed, threshold)
			checkConesAgainstBrute(t, s, n, threshold)
		}
	}
}

// TestConeThresholdBoundary builds a chain of k inverters, whose head net
// has a cone of exactly k gates: threshold k must store it, threshold k-1
// must overflow it.
func TestConeThresholdBoundary(t *testing.T) {
	const k = 9
	n := netlist.New("chain")
	a := n.Input("a")
	cur := a
	for i := 0; i < k; i++ {
		cur = n.Not(cur)
	}
	n.AddFF(cur, "q")
	n.Output(cur, "po")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := scan.Insert(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pats := []*scan.Pattern{c.NewPattern(3)}

	exact := NewSimCone(c, pats, k)
	if cone, overflow := exact.Cone(a); overflow || len(cone) != k {
		t.Fatalf("threshold %d: cone %v overflow %v, want %d gates stored", k, cone, overflow, k)
	}
	below := NewSimCone(c, pats, k-1)
	if _, overflow := below.Cone(a); !overflow {
		t.Fatalf("threshold %d: cone of %d gates should overflow", k-1, k)
	}
	// Both engines must still simulate identically.
	for _, f := range NewUniverse(n).All {
		if a, b := exact.Run(f, false), below.Run(f, false); !reflect.DeepEqual(a, b) {
			t.Fatalf("fault %v: stored-cone %+v vs overflow %+v", f, a, b)
		}
	}
}

// TestOverflowFallbackMatchesFullWalk drives a tiny threshold so nearly
// every net overflows, and demands byte-identical Results against the
// forced full walk and the oracle across random circuits.
func TestOverflowFallbackMatchesFullWalk(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		low, n := randomSimForCone(t, seed, 2)
		full, _ := randomSimForCone(t, seed, 0)
		def, _ := randomSimForCone(t, seed, DefaultConeThreshold)
		for _, f := range NewUniverse(n).All {
			want := full.Run(f, false)
			if got := low.Run(f, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fault %v: threshold-2 %+v, full walk %+v", seed, f, got, want)
			}
			if got := def.Run(f, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fault %v: default %+v, full walk %+v", seed, f, got, want)
			}
		}
	}
}

// TestEpochResetGuard forces the epoch counters to the reset limit and
// checks that simulation results are unaffected — the slab is re-cleared,
// not aliased against stale marks.
func TestEpochResetGuard(t *testing.T) {
	s, n := randomSimForCone(t, 3, DefaultConeThreshold)
	u := NewUniverse(n)
	want := make([]Result, len(u.All))
	for i, f := range u.All {
		want[i] = s.Run(f, false)
	}
	s.scr.curEp = epochResetLimit + 7
	s.scr.runEp = epochResetLimit + 7
	for i, f := range u.All {
		if got := s.Run(f, false); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("fault %v after epoch reset: %+v, want %+v", f, got, want[i])
		}
	}
	if s.scr.curEp >= epochResetLimit {
		t.Fatalf("epoch counter %d not rewound by the guard", s.scr.curEp)
	}
	// The reset must re-initialize the whole marker slab, not just rewind
	// the counters — a skipped clear leaves stale marks that alias the
	// small epochs handed out after the rewind.
	s.scr.resetEpochs()
	for i, v := range s.scr.slab {
		if v != -1 {
			t.Fatalf("slab[%d] = %d after resetEpochs, want -1", i, v)
		}
	}
}

// TestExcitationSkipExactness pins the excitation-index word skip against
// the forced full walk on patterns where the index actually discriminates:
// single-lane all-zero and all-one words drive most excitation bits clear,
// so a skip that is wrong in either polarity — on the per-net rows or the
// exact per-pin flip rows — changes Results here. (64-lane random words
// set nearly every excitation bit, which is why this needs its own test.)
func TestExcitationSkipExactness(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		cfg := netlist.RandomConfig{
			Seed:     seed,
			Gates:    1 + int(seed%57),
			FFs:      1 + int((seed>>8)%9),
			Inputs:   1 + int((seed>>16)%5),
			Outputs:  1 + int((seed>>24)%4),
			MaxFanIn: 2 + int((seed>>32)%4),
		}
		n := netlist.Random(cfg)
		c, err := scan.Insert(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(fill uint64) *scan.Pattern {
			p := c.NewPattern(1)
			for i := range p.FFVals {
				p.FFVals[i] = fill
			}
			for i := range p.PIVals {
				p.PIVals[i] = fill
			}
			return p
		}
		x := seed ^ 0x9e3779b97f4a7c15
		mixed := c.NewPattern(1)
		for i := range mixed.FFVals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			mixed.FFVals[i] = x
		}
		for i := range mixed.PIVals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			mixed.PIVals[i] = x
		}
		pats := []*scan.Pattern{mk(0), mk(^uint64(0)), mixed}
		clipped := NewSimCone(c, pats, DefaultConeThreshold)
		full := NewSimCone(c, pats, 0)
		for _, f := range NewUniverse(n).All {
			if got, want := clipped.Run(f, false), full.Run(f, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d fault %v: clipped %+v, full walk %+v", seed, f, got, want)
			}
		}
	}
}

// FuzzConeBuild generates arbitrary valid random netlists and thresholds
// and verifies the stored cones against the brute-force BFS, plus full
// Result equality between the fuzzed-threshold engine and the forced full
// walk on a few faults.
func FuzzConeBuild(f *testing.F) {
	f.Add(uint64(0), byte(10), byte(2), byte(2), byte(2), byte(2), byte(4))
	f.Add(uint64(42), byte(97), byte(11), byte(7), byte(5), byte(4), byte(16))
	f.Add(uint64(7), byte(30), byte(1), byte(1), byte(1), byte(2), byte(0))
	f.Add(uint64(1234567), byte(60), byte(9), byte(3), byte(4), byte(5), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, gates, ffs, inputs, outputs, fanin, threshold byte) {
		cfg := netlist.RandomConfig{
			Seed:     seed,
			Gates:    1 + int(gates)%97,
			FFs:      1 + int(ffs)%11,
			Inputs:   1 + int(inputs)%7,
			Outputs:  1 + int(outputs)%5,
			MaxFanIn: 2 + int(fanin)%5,
		}
		n := netlist.Random(cfg)
		if err := n.Validate(); err != nil {
			t.Fatalf("generator produced invalid netlist: %v", err)
		}
		c, err := scan.Insert(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := c.NewPattern(64)
		x := seed | 1
		for i := range p.FFVals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.FFVals[i] = x
		}
		for i := range p.PIVals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.PIVals[i] = x
		}
		pats := []*scan.Pattern{p}
		th := int(threshold)
		s := NewSimCone(c, pats, th)
		checkConesAgainstBrute(t, s, n, th)

		full := NewSimCone(c, pats, 0)
		u := NewUniverse(n)
		for i, fl := range u.All {
			if i >= 16 {
				break
			}
			if got, want := s.Run(fl, false), full.Run(fl, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("fault %v: threshold-%d %+v, full walk %+v", fl, th, got, want)
			}
		}
	})
}
