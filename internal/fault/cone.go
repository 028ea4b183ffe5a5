package fault

import (
	"cmp"
	"slices"
	"sort"

	"rescue/internal/netlist"
)

// Fan-out cone precomputation. A stuck-at fault seeded on net n can only
// disturb the transitive fan-out of n, so the simulator stores, per net,
// that gate set (level-sorted, so one forward sweep evaluates it in
// topological order) plus the observation points reachable through it.
// Nets whose cone exceeds the threshold store nothing and fall back to
// the full-netlist walk — for them clipping would approach the whole
// circuit anyway, and the threshold bounds cone memory.
//
// Correctness of the stored sets is pinned three ways: unit tests against
// a brute-force BFS (TestConeMatchesBruteForce), the FuzzConeBuild fuzz
// target over arbitrary random netlists, and diffcheck property P7, which
// requires the clipped engine to produce byte-identical Results to the
// forced full-walk engine and the oracle.

// buildCones fills the simCore's per-net cone CSR arrays. threshold <= 0
// disables clipping: every net is marked full-walk and no cone is stored.
func (c *simCore) buildCones(threshold int) {
	c.coneThreshold = threshold
	nNets := c.N.NumNets()
	c.coneFull = make([]bool, nNets)
	c.coneDownObs = make([]bool, nNets)
	c.coneOff = make([]int32, nNets+1)
	c.coneObsOff = make([]int32, nNets+1)
	if threshold <= 0 {
		for i := range c.coneFull {
			c.coneFull[i] = true
		}
		return
	}

	mark := make([]int32, c.N.NumGates())
	for i := range mark {
		mark[i] = -1
	}
	var stack, gbuf []netlist.GateID
	var obuf []int32
	for net := 0; net < nNets; net++ {
		gbuf = gbuf[:0]
		stack = stack[:0]
		overflow := false
		for j := c.fl.RdrOff[net]; j < c.fl.RdrOff[net+1]; j++ {
			g := c.fl.Rdrs[j]
			if mark[g] != int32(net) {
				mark[g] = int32(net)
				stack = append(stack, g)
			}
		}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			gbuf = append(gbuf, g)
			if len(gbuf) > threshold {
				overflow = true
				break
			}
			out := c.fl.Out[g]
			for j := c.fl.RdrOff[out]; j < c.fl.RdrOff[out+1]; j++ {
				r := c.fl.Rdrs[j]
				if mark[r] != int32(net) {
					mark[r] = int32(net)
					stack = append(stack, r)
				}
			}
		}
		if overflow {
			c.coneFull[net] = true
			c.coneOff[net+1] = c.coneOff[net]
			c.coneObsOff[net+1] = c.coneObsOff[net]
			continue
		}
		// Level-major order makes the stored cone a valid evaluation
		// schedule: every gate appears after all cone gates feeding it.
		slices.SortFunc(gbuf, func(a, b netlist.GateID) int {
			return cmp.Or(cmp.Compare(c.fl.Level[a], c.fl.Level[b]), cmp.Compare(a, b))
		})
		c.coneGates = append(c.coneGates, gbuf...)
		c.coneOff[net+1] = int32(len(c.coneGates))

		// Reachable observation points: those sampling the net itself,
		// plus those sampling any cone gate's output. Obs chains partition
		// the points by sampled net and the netlist is acyclic with one
		// driver per net, so no point can appear twice.
		obuf = obuf[:0]
		for oi := c.fl.ObsHead[net]; oi >= 0; oi = c.fl.ObsNext[oi] {
			obuf = append(obuf, oi)
		}
		down := false
		for _, g := range gbuf {
			for oi := c.fl.ObsHead[c.fl.Out[g]]; oi >= 0; oi = c.fl.ObsNext[oi] {
				obuf = append(obuf, oi)
				down = true
			}
		}
		slices.Sort(obuf)
		c.coneDownObs[net] = down
		c.coneObs = append(c.coneObs, obuf...)
		c.coneObsOff[net+1] = int32(len(c.coneObs))
	}
}

// ConeThreshold reports the fan-out-cone clipping threshold this
// simulator was built with (0 = clipping disabled, every fault takes the
// full-netlist walk).
func (s *Sim) ConeThreshold() int {
	if s.coneThreshold < 0 {
		return 0
	}
	return s.coneThreshold
}

// Cone returns the stored fan-out cone of net — its transitive fan-out
// gate set in (level, id) order — and whether the net overflowed the
// threshold (overflowed or clipping-disabled nets store no cone and take
// the full walk). The returned slice is a copy.
func (s *Sim) Cone(net netlist.NetID) ([]netlist.GateID, bool) {
	if s.coneFull[net] {
		return nil, true
	}
	seg := s.coneGates[s.coneOff[net]:s.coneOff[net+1]]
	return append([]netlist.GateID(nil), seg...), false
}

// ConeObs returns the observation points (netlist.ObsPoints indices)
// structurally reachable from net: those sampling the net itself or any
// gate output in its stored cone, sorted ascending. Nil for overflowed or
// clipping-disabled nets. The returned slice is a copy.
func (s *Sim) ConeObs(net netlist.NetID) []int {
	if s.coneFull[net] {
		return nil
	}
	seg := s.coneObs[s.coneObsOff[net]:s.coneObsOff[net+1]]
	out := make([]int, len(seg))
	for i, oi := range seg {
		out[i] = int(oi)
	}
	return out
}

// ConeStats summarizes the stored cone structure — the shape data behind
// the clipping win, reported by benchmarks and EXPERIMENTS.md.
type ConeStats struct {
	Threshold  int // clipping threshold the core was built with
	Nets       int // nets with a stored cone
	Overflow   int // nets whose cone exceeded the threshold (full walk)
	TotalGates int // sum of stored cone sizes
	MaxGates   int // largest stored cone
	P50        int // stored-cone size percentiles
	P90        int
	P99        int
	MeanGates  float64 // mean stored cone size
}

// ConeStats computes summary statistics over the stored cones.
func (s *Sim) ConeStats() ConeStats {
	st := ConeStats{Threshold: s.ConeThreshold()}
	if s.coneThreshold <= 0 {
		st.Overflow = len(s.coneFull)
		return st
	}
	sizes := make([]int, 0, len(s.coneFull))
	for net := range s.coneFull {
		if s.coneFull[net] {
			st.Overflow++
			continue
		}
		sz := int(s.coneOff[net+1] - s.coneOff[net])
		sizes = append(sizes, sz)
		st.TotalGates += sz
		if sz > st.MaxGates {
			st.MaxGates = sz
		}
	}
	st.Nets = len(sizes)
	if st.Nets == 0 {
		return st
	}
	sort.Ints(sizes)
	pct := func(p float64) int {
		i := int(p * float64(len(sizes)-1))
		return sizes[i]
	}
	st.P50, st.P90, st.P99 = pct(0.50), pct(0.90), pct(0.99)
	st.MeanGates = float64(st.TotalGates) / float64(st.Nets)
	return st
}
