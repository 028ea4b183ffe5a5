package core

import (
	"testing"

	"rescue/internal/rtl"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

// TestBaselineCannotIsolate is the paper's negative control: running the
// same isolation procedure on the un-transformed baseline design produces
// ambiguous results (failing bits implicate multiple blocks), because the
// compacting issue queue, shared rename tables and shared select root
// violate ICI.
func TestBaselineCannotIsolate(t *testing.T) {
	s := buildSmall(t, rtl.Baseline)
	tp := mustTestProgram(t, s, testCfg())
	rep := mustIsolate(t, s, tp, 40, []string{"rename", "issue"}, 11, 2)
	total := rep.Isolated + rep.Wrong + rep.Ambiguous
	if total == 0 {
		t.Fatal("no faults sampled")
	}
	if rep.Ambiguous+rep.Wrong == 0 {
		t.Fatalf("baseline unexpectedly isolated all %d faults (%+v)", total, rep.PerStage)
	}
	t.Logf("baseline: %d/%d ambiguous or wrong — cannot map out at block granularity",
		rep.Ambiguous+rep.Wrong, total)
}

// TestEndToEndSalvage walks the complete flow: build, test, inject, detect,
// isolate, map out, and run the degraded configuration in the performance
// simulator — the quickstart example as a regression test.
func TestEndToEndSalvage(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	tp := mustTestProgram(t, s, testCfg())

	// inject one detectable fault per distinct redundant super-component
	salvaged := 0
	for _, f := range tp.Universe.Collapsed {
		if salvaged >= 4 {
			break
		}
		if f.Gate < 0 {
			continue
		}
		comp := s.Design.N.CompName(s.Design.N.FaultSiteComp(f))
		truth := s.Design.Grouping[comp]
		if truth == "CHIPKILL" {
			continue
		}
		res := tp.Gen.Sim.Run(f, false)
		if !res.Detected {
			continue
		}
		super, err := s.Audit.Isolate(res.FailObs)
		if err != nil {
			t.Fatalf("fault %v: %v", f, err)
		}
		if super != truth {
			t.Fatalf("fault %v isolated to %s, want %s", f, super, truth)
		}
		degr, err := MapOut([]string{super})
		if err != nil {
			t.Fatalf("map out %s: %v", super, err)
		}
		prof, err := workload.ByName("gzip")
		if err != nil {
			t.Fatal(err)
		}
		p := uarch.RescueParams()
		p.Degr = degr
		sim, err := uarch.New(p, prof)
		if err != nil {
			t.Fatalf("degraded sim for %s: %v", super, err)
		}
		ipc := sim.Run(1_000, 5_000).IPC()
		if ipc <= 0 {
			t.Fatalf("salvaged core for %s produced zero IPC", super)
		}
		salvaged++
	}
	if salvaged < 3 {
		t.Fatalf("only %d salvage flows exercised", salvaged)
	}
}
