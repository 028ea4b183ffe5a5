package fault

import (
	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// Oracle is a brute-force reference fault simulator: for every
// (fault, pattern word) it re-evaluates the complete netlist through the
// scan package's load/capture semantics — no event-driven scheduling, no
// levels, no fault dropping, no shared scratch state, no per-net reader
// maps. It implements exactly the same Result contract as Sim (see the
// ordering documentation on Result) while sharing none of Sim's machinery,
// so the two engines cannot share a bug: the differential harness in
// internal/diffcheck cross-checks them on thousands of generated circuits,
// the methodology of differential simulator validation (cf. "Towards
// Accurate Performance Modeling of RISC-V Designs").
//
// An Oracle is orders of magnitude slower than Sim — cost is
// O(gates × words) per fault regardless of how far the fault effect
// propagates — which is the point: it is the simple, obviously-correct
// implementation the optimized engine is measured against.
type Oracle struct {
	C        *scan.Chain
	Patterns []*scan.Pattern

	good [][]uint64 // [word][obs] good-machine responses, brute-forced
}

// NewOracle builds an oracle over the chain's netlist and precomputes
// good-machine responses for the given patterns (which may be nil; use
// AddPattern to grow the set).
func NewOracle(c *scan.Chain, patterns []*scan.Pattern) *Oracle {
	o := &Oracle{C: c}
	for _, p := range patterns {
		o.AddPattern(p)
	}
	return o
}

// AddPattern appends a pattern word and brute-forces its good response.
func (o *Oracle) AddPattern(p *scan.Pattern) {
	o.good = append(o.good, o.C.ApplyTest(p, netlist.NoFault))
	o.Patterns = append(o.Patterns, p)
}

// Run simulates fault f against every pattern word by full netlist
// re-evaluation, with the same detectOnly semantics as Sim.Run: a
// detect-only run stops at the first failing observation and reports
// Detected only.
func (o *Oracle) Run(f netlist.Fault, detectOnly bool) Result {
	res := Result{}
	numObs := o.C.N.NumFFs() + len(o.C.N.Outputs)
	var seen []bool
	for w, p := range o.Patterns {
		mask := p.LaneMask()
		bad := o.C.ApplyTest(p, f)
		good := o.good[w]
		for oi := 0; oi < numObs; oi++ {
			if (bad[oi]^good[oi])&mask == 0 {
				continue
			}
			res.Detected = true
			if detectOnly {
				return res
			}
			if seen == nil {
				seen = make([]bool, numObs)
			}
			if !seen[oi] {
				seen[oi] = true
				res.FailObs = append(res.FailObs, oi)
			}
		}
	}
	return res
}
