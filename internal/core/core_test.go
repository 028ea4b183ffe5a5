package core

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
	"rescue/internal/yield"
)

func buildSmall(t *testing.T, v rtl.Variant) *System {
	t.Helper()
	s, err := Build(rtl.Small(), v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustTestProgram is the test shorthand for an uninterrupted ATPG run.
func mustTestProgram(t *testing.T, s *System, cfg atpg.GenConfig) *TestProgram {
	t.Helper()
	tp, err := s.GenerateTestsFlow(context.Background(), cfg, nil)
	if err != nil {
		t.Fatalf("ATPG failed: %v", err)
	}
	return tp
}

// mustIsolate is the test shorthand for an uninterrupted isolation
// campaign.
func mustIsolate(t *testing.T, s *System, tp *TestProgram, perStage int, stages []string, seed int64, workers int) IsolationReport {
	t.Helper()
	rep, err := s.IsolateCampaignFlow(context.Background(), tp, perStage, stages, seed, workers, nil)
	if err != nil {
		t.Fatalf("isolation campaign failed: %v", err)
	}
	return rep
}

// mustMultiFault is the test shorthand for an uninterrupted multi-fault
// isolation run.
func mustMultiFault(t *testing.T, s *System, tp *TestProgram, trials, nFaults int, seed int64, workers int) (ok, total int) {
	t.Helper()
	ok, total, err := s.MultiFaultIsolationFlow(context.Background(), tp, trials, nFaults, seed, workers, nil)
	if err != nil {
		t.Fatalf("multi-fault isolation failed: %v", err)
	}
	return ok, total
}

func testCfg() atpg.GenConfig {
	cfg := atpg.DefaultGenConfig()
	cfg.MaxRandomWords = 24
	cfg.MaxBacktracks = 200
	return cfg
}

func TestBuildRescueAuditsClean(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	if !s.Audit.OK() {
		t.Fatalf("rescue audit has %d violations", len(s.Audit.Violations))
	}
}

func TestBuildBaselineAuditsViolations(t *testing.T) {
	s := buildSmall(t, rtl.Baseline)
	if s.Audit.OK() {
		t.Fatal("baseline should violate ICI at map-out granularity")
	}
}

func TestGenerateTestsAndSummary(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	tp := mustTestProgram(t, s, testCfg())
	sum := s.Summary(tp)
	if sum.Coverage < 0.90 {
		t.Fatalf("coverage = %.3f", sum.Coverage)
	}
	if sum.Faults <= 0 || sum.ScanCells <= 0 || sum.Vectors <= 0 || sum.Cycles <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Variant != "rescue" {
		t.Fatalf("variant = %s", sum.Variant)
	}
}

// TestDictionaryAllocBound bounds what a full-syndrome campaign allocates:
// the small Rescue dictionary (the one `rescue-dict build -small` writes)
// built on one worker keeps each fault's syndrome and nothing per failing
// bit, so the whole build stays within a few MB.
func TestDictionaryAllocBound(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	gen := atpg.DefaultGenConfig()
	gen.Workers = 1
	tp := mustTestProgram(t, s, gen)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, st, err := fault.BuildDictionaryFlow(context.Background(), tp.Gen.Sim, tp.Universe, 1, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The workload is the CLI's: same campaign size and the same detections.
	if st.Faults != 18866 || st.Words != 943300 || d.Detected() != 17737 {
		t.Fatalf("campaign %d faults, %d word-sims, %d detected; want 18866, 943300, 17737",
			st.Faults, st.Words, d.Detected())
	}
	const bound = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("dictionary build allocated %.1f MB (%d mallocs), bound %d MB",
			float64(got)/(1<<20), after.Mallocs-before.Mallocs, bound>>20)
	}
}

// TestCheckpointAllocBound bounds what a checkpoint journal adds to a
// flow: the small Rescue test program generated on one worker with a fresh
// journal allocates at most twice what the same call allocates without
// one, and is the identical test program. Each freshly simulated result is
// encoded once and appended; the journal keeps no copy of it and never
// re-encodes what is already on disk.
func TestCheckpointAllocBound(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	gen := atpg.DefaultGenConfig()
	gen.Workers = 1
	run := func(ck *fault.Checkpoint) (*TestProgram, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tp, err := s.GenerateTestsFlow(context.Background(), gen, ck)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return tp, after.TotalAlloc - before.TotalAlloc
	}
	run(nil) // warm the netlist's compiled form so both measured calls pay the same
	plain, plainAlloc := run(nil)
	journaled, ckAlloc := run(fault.NewCheckpoint(filepath.Join(t.TempDir(), "atpg.ck")))
	t.Logf("allocated %.1f MB plain, %.1f MB journaled", float64(plainAlloc)/(1<<20), float64(ckAlloc)/(1<<20))
	if ckAlloc > 2*plainAlloc {
		t.Fatalf("journaled generation allocated %.1f MB, more than twice the %.1f MB without a journal",
			float64(ckAlloc)/(1<<20), float64(plainAlloc)/(1<<20))
	}
	p, j := *plain.Gen, *journaled.Gen
	if !reflect.DeepEqual(p.Sim.Patterns, j.Sim.Patterns) {
		t.Fatal("journaled generation produced a different pattern set")
	}
	p.Sim, j.Sim, p.Stats, j.Stats = nil, nil, fault.Stats{}, fault.Stats{}
	if p != j {
		t.Fatalf("journaled generation differs:\n  plain     %+v\n  journaled %+v", p, j)
	}
}

func TestIsolationCampaignSmall(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	tp := mustTestProgram(t, s, testCfg())
	rep := mustIsolate(t, s, tp, 30, Stages(), 42, 2)
	total := rep.Isolated + rep.Wrong + rep.Ambiguous
	if total == 0 {
		t.Fatal("no faults sampled")
	}
	if rep.Wrong != 0 || rep.Ambiguous != 0 {
		t.Fatalf("isolation failures: %d wrong, %d ambiguous of %d (per stage %+v)",
			rep.Wrong, rep.Ambiguous, total, rep.PerStage)
	}
}

func TestMultiFaultIsolation(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	tp := mustTestProgram(t, s, testCfg())
	ok, total := mustMultiFault(t, s, tp, 20, 3, 7, 2)
	if total != 20 {
		t.Fatalf("total = %d", total)
	}
	if ok < total-2 { // allow occasional all-undetected trials
		t.Fatalf("multi-fault isolation: %d/%d", ok, total)
	}
}

func TestMapOut(t *testing.T) {
	d, err := MapOut([]string{"FE0", "IQ1", "LSQ0"})
	if err != nil {
		t.Fatal(err)
	}
	want := uarch.Degraded{FEGroupsDisabled: 1, IntIQHalvesDown: 1, LSQHalvesDown: 1}
	if d != want {
		t.Fatalf("mapout = %+v", d)
	}
	if _, err := MapOut([]string{"CHIPKILL"}); err == nil {
		t.Fatal("chipkill must error")
	}
	if _, err := MapOut([]string{"FE0", "FE1"}); err == nil {
		t.Fatal("both frontend groups down must be dead")
	}
	if _, err := MapOut([]string{"bogus"}); err == nil {
		t.Fatal("unknown super must error")
	}
	// duplicates collapse
	d, err = MapOut([]string{"BE0", "BE0"})
	if err != nil || d.IntGroupsDisabled != 1 {
		t.Fatalf("dup mapout = %+v, %v", d, err)
	}
}

func TestScaleFor(t *testing.T) {
	s90 := ScaleFor(area.Node(90))
	if s90.ExtraMispred != 0 || s90.MemLatencyScale != 1 {
		t.Fatalf("90nm scale = %+v", s90)
	}
	s45 := ScaleFor(area.Node(45))
	if s45.ExtraMispred != 4 {
		t.Fatalf("45nm extra mispred = %d, want 4 (2 halvings)", s45.ExtraMispred)
	}
	if s45.MemLatencyScale < 2.24 || s45.MemLatencyScale > 2.26 {
		t.Fatalf("45nm mem scale = %v, want 2.25", s45.MemLatencyScale)
	}
}

func TestIPCStudySubset(t *testing.T) {
	rows, err := IPCStudyFlow(context.Background(), []string{"gzip", "swim"}, 2000, 15000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Baseline <= 0 || r.Rescue <= 0 {
			t.Fatalf("row %+v", r)
		}
		if r.DegradationPct < -2 || r.DegradationPct > 25 {
			t.Fatalf("degradation out of band: %+v", r)
		}
	}
}

func TestPerfModelAndYATStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("yat study is slow")
	}
	benches := []string{"gzip", "swim"}
	models := map[int]*PerfModel{}
	for _, node := range area.Nodes() {
		pm, err := BuildPerfModelFlow(context.Background(), node, benches, 1000, 6000, 0)
		if err != nil {
			t.Fatal(err)
		}
		// full-config Rescue IPC must be within [0.5, 1.02] of baseline
		for _, b := range benches {
			full := pm.Rescue[b][yield.CoreConfig{}]
			if full <= 0 || full > pm.Baseline[b]*1.05 {
				t.Fatalf("node %d bench %s: full rescue %v vs baseline %v",
					node.NodeNM, b, full, pm.Baseline[b])
			}
		}
		models[node.NodeNM] = pm
	}
	rows, err := YATStudy(area.Node(90), models)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 nodes x 4 growth rates
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.RelNone <= r.RelCS+1e-9 && r.RelCS <= 1+1e-9 && r.RelRescue <= 1+1e-9) {
			t.Fatalf("ordering broken: %+v", r)
		}
	}
	// Rescue advantage at 18nm must exceed that at 32nm (the paper's trend)
	var a32, a18 float64
	for _, r := range rows {
		if r.Growth == 0.3 && r.NodeNM == 32 {
			a32 = r.RescueOverCSPct
		}
		if r.Growth == 0.3 && r.NodeNM == 18 {
			a18 = r.RescueOverCSPct
		}
	}
	if a18 <= a32 {
		t.Fatalf("advantage should grow with scaling: 32nm %.1f%%, 18nm %.1f%%", a32, a18)
	}
}
