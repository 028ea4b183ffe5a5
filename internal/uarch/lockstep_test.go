package uarch_test

import (
	"fmt"
	"testing"

	"rescue/internal/area"
	"rescue/internal/core"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// lockstepCase is one simulation the fast path must reproduce exactly.
type lockstepCase struct {
	name           string
	p              uarch.Params
	warmup, commit int64
}

// commitRec is one entry of a commit trace.
type commitRec struct{ cycle, seq int64 }

// runLockstep runs c on the per-cycle reference loop, then on the event
// driven fast path, and fails on the first commit that lands on a
// different cycle or out of order, or on any difference in Stats or
// Occupancy.
func runLockstep(t *testing.T, prog *workload.Program, c lockstepCase) {
	t.Helper()
	ref, err := uarch.NewFromSource(c.p, prog.Gen())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	uarch.SetReference(ref)
	var trace []commitRec
	uarch.OnCommit(ref, func(cycle, seq int64) { trace = append(trace, commitRec{cycle, seq}) })
	refStats := ref.Run(c.warmup, c.commit)

	fast, err := uarch.NewFromSource(c.p, prog.Gen())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	n := 0
	diverged := false
	uarch.OnCommit(fast, func(cycle, seq int64) {
		if !diverged && (n >= len(trace) || trace[n] != commitRec{cycle, seq}) {
			diverged = true
			want := "nothing"
			if n < len(trace) {
				want = fmt.Sprintf("%+v", trace[n])
			}
			t.Errorf("%s: commit %d is %+v, reference %s", c.name, n, commitRec{cycle, seq}, want)
		}
		n++
	})
	fastStats := fast.Run(c.warmup, c.commit)
	if !diverged && n != len(trace) {
		t.Errorf("%s: %d commits, reference %d", c.name, n, len(trace))
	}
	if fastStats != refStats {
		t.Errorf("%s: stats\n fast %+v\n  ref %+v", c.name, fastStats, refStats)
	}
	if fo, ro := fast.Occupancy(), ref.Occupancy(); fo != ro {
		t.Errorf("%s: occupancy\n fast %+v\n  ref %+v", c.name, fo, ro)
	}
}

func scaled(p uarch.Params, node area.Scaling) uarch.Params {
	ns := core.ScaleFor(node)
	p.MemLatencyScale = ns.MemLatencyScale
	p.FrontendDepth += ns.ExtraMispred
	return p
}

func degraded(c yield.CoreConfig) uarch.Degraded {
	return uarch.Degraded{
		FEGroupsDisabled:  c.FEDown,
		IntGroupsDisabled: c.IntBEDown,
		FPGroupsDisabled:  c.FPBEDown,
		IntIQHalvesDown:   c.IntIQDown,
		FPIQHalvesDown:    c.FPIQDown,
		LSQHalvesDown:     c.LSQDown,
	}
}

// TestLockstep pins the event-driven cycle loop (completion heap plus
// idle fast-forward) to the per-cycle reference loop it replaces: the same
// (cycle, seq) commit trace and identical Stats and Occupancy on every
// benchmark profile at every node, for the baseline, the fault-free
// Rescue core and four degraded configurations each (a different sample
// per profile and node, 63 live configurations between them), plus the
// replay ablations, compaction-buffer depths 2 and 8, squash window 3,
// the self-healing BTB and a run without warmup.
func TestLockstep(t *testing.T) {
	cfgs := yield.Configs() // cfgs[0] is fault-free
	profs := append(workload.Benchmarks(), workload.Microbenchmarks()...)
	for pi, prof := range profs {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			prog := workload.Compile(prof)
			for ni, node := range area.Nodes() {
				var cases []lockstepCase
				add := func(name string, p uarch.Params) {
					cases = append(cases, lockstepCase{fmt.Sprintf("%dnm %s", node.NodeNM, name), scaled(p, node), 200, 1000})
				}
				add("baseline", uarch.DefaultParams())
				add("rescue", uarch.RescueParams())
				for k := 0; k < 4; k++ {
					p := uarch.RescueParams()
					p.Degr = degraded(cfgs[1+(5*pi+11*ni+16*k)%63])
					add(p.Degr.String(), p)
				}
				if pi%4 == ni {
					// the knobs the paper's machines leave fixed, on a
					// rotating subset of profiles and nodes
					for _, pol := range []uarch.ReplayPolicy{uarch.ReplayAll, uarch.OracleCombine} {
						p := uarch.RescueParams()
						p.ReplayPolicy = pol
						add("replay-"+pol.String(), p)
					}
					for _, slots := range []int{2, 8} {
						p := uarch.RescueParams()
						p.CompBufSlots = slots
						add(fmt.Sprintf("compbuf-%d", slots), p)
					}
					p := uarch.RescueParams()
					p.SquashWindow = 3
					add("squash-3", p)
					p = uarch.RescueParams()
					p.BTBFaultFrac, p.BTBSpares = 0.1, 4
					add("selfheal-btb", p)
					p = uarch.RescueParams()
					p.Degr = degraded(cfgs[63])
					cases = append(cases, lockstepCase{fmt.Sprintf("%dnm no-warmup %v", node.NodeNM, p.Degr), scaled(p, node), 0, 1000})
				}
				for _, c := range cases {
					runLockstep(t, prog, c)
				}
			}
		})
	}
}
