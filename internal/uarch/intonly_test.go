package uarch_test

import (
	"slices"
	"testing"

	"rescue/internal/area"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// runTrace simulates p over a fresh walk of prog and returns its
// (cycle, seq) commit trace, Stats and Occupancy.
func runTrace(t *testing.T, prog *workload.Program, p uarch.Params, warmup, commit int64) ([]commitRec, uarch.Stats, uarch.Occupancy) {
	t.Helper()
	s, err := uarch.NewFromSource(p, prog.Gen())
	if err != nil {
		t.Fatalf("%v: %v", p.Degr, err)
	}
	var trace []commitRec
	uarch.OnCommit(s, func(cycle, seq int64) { trace = append(trace, commitRec{cycle, seq}) })
	st := s.Run(warmup, commit)
	return trace, st, s.Occupancy()
}

// TestIntOnlyInvariance pins the rule Params.IntOnly states: a program
// with no FP-class instruction runs the same under all four settings of
// the FP backend-group and FP issue-queue knobs. For every FP-free
// profile at 90 and 18 nm and each of the 16 configurations whose two FP
// knobs are 0, the four {FPGroupsDisabled, FPIQHalvesDown} variants must
// give the same commit trace, Stats and Occupancy, and IntOnly must map
// each variant to that configuration. Disabling an FP group on swim must
// change Stats, which shows the comparison can see an FP effect.
func TestIntOnlyInvariance(t *testing.T) {
	const warmup, commit = 200, 1000
	var fpFree int
	for _, prof := range workload.Benchmarks() {
		prog := workload.Compile(prof)
		if prog.UsesFP() {
			continue
		}
		fpFree++
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			for _, node := range []area.Scaling{area.Node(90), area.Node(18)} {
				for _, c := range yield.Configs() {
					if c.FPBEDown != 0 || c.FPIQDown != 0 {
						continue
					}
					base := scaled(uarch.RescueParams(), node)
					base.Degr = degraded(c)
					wantTrace, wantStats, wantOcc := runTrace(t, prog, base, warmup, commit)
					for _, fp := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
						p := base
						p.Degr.FPGroupsDisabled, p.Degr.FPIQHalvesDown = fp[0], fp[1]
						if got := p.IntOnly(); got != base {
							t.Fatalf("%dnm: IntOnly(%v) = %v, want %v", node.NodeNM, p.Degr, got.Degr, base.Degr)
						}
						trace, st, occ := runTrace(t, prog, p, warmup, commit)
						if !slices.Equal(trace, wantTrace) {
							t.Errorf("%dnm %v: commit trace differs from %v", node.NodeNM, p.Degr, base.Degr)
						}
						if st != wantStats {
							t.Errorf("%dnm %v: stats\n got %+v\nwant %+v", node.NodeNM, p.Degr, st, wantStats)
						}
						if occ != wantOcc {
							t.Errorf("%dnm %v: occupancy\n got %+v\nwant %+v", node.NodeNM, p.Degr, occ, wantOcc)
						}
					}
				}
			}
		})
	}
	if fpFree != 10 {
		t.Fatalf("%d FP-free profiles, want 10", fpFree)
	}

	swim := workload.Compile(mustProfile(t, "swim"))
	p := uarch.RescueParams()
	_, full, _ := runTrace(t, swim, p, warmup, commit)
	p.Degr.FPGroupsDisabled = 1
	if _, st, _ := runTrace(t, swim, p, warmup, commit); st == full {
		t.Fatalf("swim: an FP group disabled left Stats unchanged: %+v", st)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
