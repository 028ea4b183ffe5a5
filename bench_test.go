// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out and
// micro-benchmarks of the hot substrates. Reduced configurations and
// instruction counts keep `go test -bench=.` tractable; the cmd/ binaries
// run the full-scale versions.
package rescue_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rescue"
	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2Areas regenerates the component relative-area table.
func BenchmarkTable2Areas(b *testing.B) {
	var base, resc rescue.AreaModel
	for i := 0; i < b.N; i++ {
		base = rescue.BaselineArea()
		resc = rescue.RescueArea()
	}
	b.ReportMetric(base.Total, "baseline-mm2")
	b.ReportMetric(resc.Total, "rescue-mm2")
	b.ReportMetric(resc.Frac(area.IntBE)*100, "intBE-%")
	b.ReportMetric(resc.Frac(area.FPBE)*100, "fpBE-%")
	b.ReportMetric(resc.Frac(area.Chipkill)*100, "chipkill-%")
	if b.N == 1 {
		b.Logf("Table 2: baseline %.1f mm², Rescue %.1f mm² (paper: ~96 / ~106.7)", base.Total, resc.Total)
		for g := area.Group(0); g < area.NumGroups; g++ {
			b.Logf("  %-12s %5.1f%%", g, resc.Frac(g)*100)
		}
	}
}

// ---------------------------------------------------------------- Table 3

// table3 caches the expensive ATPG runs across benchmark iterations.
var table3 map[rescue.Variant]rescue.ScanSummary

func table3Rows(b *testing.B) map[rescue.Variant]rescue.ScanSummary {
	b.Helper()
	if table3 != nil {
		return table3
	}
	table3 = map[rescue.Variant]rescue.ScanSummary{}
	for _, v := range []rescue.Variant{rescue.Baseline, rescue.RescueDesign} {
		sys, err := rescue.Build(rescue.SmallConfig(), v)
		if err != nil {
			b.Fatal(err)
		}
		tp, err := sys.GenerateTestsFlow(context.Background(), rescue.DefaultGenConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		table3[v] = sys.Summary(tp)
	}
	return table3
}

// BenchmarkTable3ScanChain regenerates the scan-chain data rows (reduced
// config; same shape as the paper: Rescue has more cells/faults and a
// modest test-time increase at similar coverage).
func BenchmarkTable3ScanChain(b *testing.B) {
	var rows map[rescue.Variant]rescue.ScanSummary
	for i := 0; i < b.N; i++ {
		table3 = nil // regenerate each iteration so timing is honest
		rows = table3Rows(b)
	}
	base, resc := rows[rescue.Baseline], rows[rescue.RescueDesign]
	b.ReportMetric(float64(base.Faults), "base-faults")
	b.ReportMetric(float64(resc.Faults), "rescue-faults")
	b.ReportMetric(float64(base.Cycles), "base-cycles")
	b.ReportMetric(float64(resc.Cycles), "rescue-cycles")
	b.ReportMetric((float64(resc.Cycles)/float64(base.Cycles)-1)*100, "cycle-increase-%")
	b.Logf("Table 3 (reduced): base %d faults/%d cells/%d vec/%d cyc; rescue %d/%d/%d/%d",
		base.Faults, base.ScanCells, base.Vectors, base.Cycles,
		resc.Faults, resc.ScanCells, resc.Vectors, resc.Cycles)
}

// ------------------------------------------------- Section 6.1 isolation

// BenchmarkFaultIsolation6000 runs the per-stage fault-isolation campaign
// (100 faults per stage at bench scale; cmd/rescue-isolate runs 1000).
func BenchmarkFaultIsolation6000(b *testing.B) {
	sys, err := rescue.Build(rescue.SmallConfig(), rescue.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	tp, err := sys.GenerateTestsFlow(ctx, rescue.DefaultGenConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep rescue.IsolationReport
	for i := 0; i < b.N; i++ {
		rep, err = sys.IsolateCampaignFlow(ctx, tp, 100, rescue.Stages(), int64(i)+1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	total := rep.Isolated + rep.Wrong + rep.Ambiguous
	b.ReportMetric(float64(rep.Isolated), "isolated")
	b.ReportMetric(float64(rep.Wrong+rep.Ambiguous), "failures")
	b.Logf("isolation: %d/%d correct (paper: 6000/6000)", rep.Isolated, total)
	if rep.Wrong+rep.Ambiguous > 0 {
		b.Fatalf("isolation failures: %+v", rep)
	}
}

// ---------------------------------------------------------------- Figure 8

// BenchmarkFigure8IPC regenerates the IPC-degradation series on a
// benchmark subset (cmd/rescue-sim runs all 23 at 1M instructions).
func BenchmarkFigure8IPC(b *testing.B) {
	names := []string{"gzip", "bzip2", "swim", "mcf", "equake", "twolf"}
	var rows []rescue.IPCRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = rescue.IPCStudyFlow(context.Background(), names, 10_000, 60_000, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, r := range rows {
		sum += r.DegradationPct
		b.Logf("%-8s base %.3f rescue %.3f (%.1f%%)", r.Benchmark, r.Baseline, r.Rescue, r.DegradationPct)
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-degradation-%")
}

// ---------------------------------------------------------------- Figure 9

// BenchmarkFigure9YAT regenerates the YAT comparison on a 2-benchmark
// subset (cmd/rescue-yat runs all 23).
func BenchmarkFigure9YAT(b *testing.B) {
	names := []string{"gzip", "swim"}
	var rows []rescue.YATRow
	for i := 0; i < b.N; i++ {
		models := map[int]*rescue.PerfModel{}
		for _, node := range rescue.Nodes() {
			pm, err := rescue.BuildPerfModelFlow(context.Background(), node, names, 2_000, 20_000, 0)
			if err != nil {
				b.Fatal(err)
			}
			models[node.NodeNM] = pm
		}
		var err error
		rows, err = rescue.YATStudy(rescue.Node(90), models)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Growth == 0.3 {
			b.Logf("%dnm 30%%: none %.3f cs %.3f rescue %.3f (+%.1f%% over CS)",
				r.NodeNM, r.RelNone, r.RelCS, r.RelRescue, r.RescueOverCSPct)
			if r.NodeNM == 32 {
				b.ReportMetric(r.RescueOverCSPct, "rescue-over-cs-32nm-%")
			}
			if r.NodeNM == 18 {
				b.ReportMetric(r.RescueOverCSPct, "rescue-over-cs-18nm-%")
			}
		}
	}
}

// ------------------------------------------------------------- Ablations

// BenchmarkAblationReplayPolicy compares the paper's replay-the-smaller-
// half policy against replay-all and an oracle combiner.
func BenchmarkAblationReplayPolicy(b *testing.B) {
	prof, _ := workload.ByName("crafty")
	for _, pol := range []uarch.ReplayPolicy{uarch.ReplaySmallerHalf, uarch.ReplayAll, uarch.OracleCombine} {
		b.Run(pol.String(), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				p := uarch.RescueParams()
				p.ReplayPolicy = pol
				s, err := uarch.New(p, prof)
				if err != nil {
					b.Fatal(err)
				}
				ipc = s.Run(10_000, 60_000).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationCompactionBuffer sweeps the inter-segment buffer depth.
func BenchmarkAblationCompactionBuffer(b *testing.B) {
	prof, _ := workload.ByName("bzip2")
	for _, slots := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("slots-%d", slots), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				p := uarch.RescueParams()
				p.CompBufSlots = slots
				s, err := uarch.New(p, prof)
				if err != nil {
					b.Fatal(err)
				}
				ipc = s.Run(10_000, 60_000).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationRenameSplit isolates the cost of the two extra shift
// stages on the misprediction path (Section 4.1/4.2) by comparing Rescue
// with and without the +2 frontend depth.
func BenchmarkAblationRenameSplit(b *testing.B) {
	prof, _ := workload.ByName("twolf") // branchy
	for _, extra := range []int{0, 2} {
		b.Run(fmt.Sprintf("extra-depth-%d", extra), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				p := uarch.RescueParams()
				p.FrontendDepth = uarch.DefaultParams().FrontendDepth + extra
				s, err := uarch.New(p, prof)
				if err != nil {
					b.Fatal(err)
				}
				ipc = s.Run(10_000, 60_000).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationGranularity compares map-out granularities at 18nm:
// chip-kill (no redundancy), core sparing, and Rescue's half-pipeline
// map-out — Figure 9's three bars as a single metric.
func BenchmarkAblationGranularity(b *testing.B) {
	flat := map[yield.CoreConfig]float64{}
	for _, c := range yield.Configs() {
		flat[c] = 0.95
	}
	flat[yield.CoreConfig{}] = 1.0
	base := yield.CoreModel{Area: area.BaselineWithScan(), Full: 1.0}
	resc := yield.CoreModel{Area: area.Rescue(), Full: 1.0, IPC: flat}
	var r yield.ChipResult
	for i := 0; i < b.N; i++ {
		r = yield.Chip(rescue.Node(18), rescue.Node(90), 0.3, base, resc)
	}
	b.ReportMetric(r.NoRedundancy/r.Ideal, "rel-none")
	b.ReportMetric(r.CoreSparing/r.Ideal, "rel-cs")
	b.ReportMetric(r.Rescue/r.Ideal, "rel-rescue")
}

// BenchmarkAblationClustering sweeps the negative-binomial alpha: heavier
// clustering (small alpha) helps every scheme; the paper uses ITRS's 2.
func BenchmarkAblationClustering(b *testing.B) {
	flat := map[yield.CoreConfig]float64{}
	for _, c := range yield.Configs() {
		flat[c] = 0.95
	}
	flat[yield.CoreConfig{}] = 1.0
	base := yield.CoreModel{Area: area.BaselineWithScan(), Full: 1.0}
	resc := yield.CoreModel{Area: area.Rescue(), Full: 1.0, IPC: flat}
	for _, alpha := range []float64{0.5, 1, 2, 4, 10} {
		b.Run(fmt.Sprintf("alpha-%g", alpha), func(b *testing.B) {
			var r yield.ChipResult
			for i := 0; i < b.N; i++ {
				r = yield.ChipAlpha(rescue.Node(18), rescue.Node(90), 0.3, base, resc, alpha)
			}
			b.ReportMetric(r.CoreSparing/r.Ideal, "rel-cs")
			b.ReportMetric(r.Rescue/r.Ideal, "rel-rescue")
		})
	}
}

// BenchmarkAblationSelfHeal evaluates the related-work integration the
// paper suggests: wrapping the predictor tables in self-healing arrays
// (Bower et al.) removes ~a third of the chipkill area. The metric pair
// shows Rescue YAT with and without the extension at 18nm.
func BenchmarkAblationSelfHeal(b *testing.B) {
	flat := map[yield.CoreConfig]float64{}
	for _, c := range yield.Configs() {
		flat[c] = 0.95
	}
	flat[yield.CoreConfig{}] = 1.0
	base := yield.CoreModel{Area: area.BaselineWithScan(), Full: 1.0}
	plain := yield.CoreModel{Area: area.Rescue(), Full: 1.0, IPC: flat}
	healed := yield.CoreModel{Area: area.RescueSelfHeal(0.35), Full: 1.0, IPC: flat}
	var rPlain, rHealed yield.ChipResult
	for i := 0; i < b.N; i++ {
		rPlain = yield.Chip(rescue.Node(18), rescue.Node(90), 0.3, base, plain)
		rHealed = yield.Chip(rescue.Node(18), rescue.Node(90), 0.3, base, healed)
	}
	b.ReportMetric(rPlain.Rescue/rPlain.Ideal, "rel-rescue")
	b.ReportMetric(rHealed.Rescue/rHealed.Ideal, "rel-rescue-selfheal")
	// and the IPC side: a damaged-but-healed BTB costs little
	prof, _ := workload.ByName("gzip")
	p := uarch.RescueParams()
	p.BTBFaultFrac = 0.1
	s, err := uarch.New(p, prof)
	if err != nil {
		b.Fatal(err)
	}
	ipc := s.Run(5_000, 30_000).IPC()
	b.ReportMetric(ipc, "ipc-damaged-btb")
}

// -------------------------------------------------------- micro-benchmarks

// BenchmarkFaultSimulation measures event-driven per-fault simulation cost
// on the Rescue netlist.
func BenchmarkFaultSimulation(b *testing.B) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	c, _ := scan.Insert(d.N, 1)
	u := fault.NewUniverse(d.N)
	g, err := atpg.GenerateFlow(context.Background(), c, u, atpg.DefaultGenConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := u.Collapsed[i%len(u.Collapsed)]
		g.Sim.Run(f, true)
	}
}

// campaignFixture caches the expensive ATPG setup shared by the campaign
// benchmarks.
var campaignFixture struct {
	sim     *fault.Sim
	fullSim *fault.Sim // same chain + patterns, cone clipping disabled
	u       *fault.Universe
}

func campaignSetup(b *testing.B) (*fault.Sim, *fault.Universe) {
	b.Helper()
	if campaignFixture.sim == nil {
		d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := scan.Insert(d.N, 1)
		u := fault.NewUniverse(d.N)
		g, err := atpg.GenerateFlow(context.Background(), c, u, atpg.DefaultGenConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		campaignFixture.sim = g.Sim
		campaignFixture.fullSim = fault.NewSimCone(c, g.Sim.Patterns, 0)
		campaignFixture.u = u
	}
	return campaignFixture.sim, campaignFixture.u
}

// BenchmarkFaultCampaign compares one full detection sweep over the
// collapsed fault universe (the Table 3 coverage workload): the serial
// Sim path vs the campaign engine at 1, 2, and NumCPU workers. Results
// are bit-identical in every mode; only the wall time moves.
func BenchmarkFaultCampaign(b *testing.B) {
	sim, u := campaignSetup(b)
	faults := u.Collapsed

	// The same sweep through the forced full-netlist walk (cone threshold
	// 0) — the reference engine and the denominator of the clipping
	// speedup that scripts/bench-sim.sh gates on.
	b.Run("full-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				campaignFixture.fullSim.Run(f, true)
			}
		}
		b.ReportMetric(float64(len(faults)), "faults/op")
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				sim.Run(f, true)
			}
		}
		b.ReportMetric(float64(len(faults)), "faults/op")
	})
	workerCounts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: w, DetectOnly: true})
			var st fault.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = camp.RunCheckpoint(context.Background(), nil, faults)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(faults)), "faults/op")
			b.ReportMetric(float64(st.Words), "word-sims")
		})
	}

	// Progress-hook overhead: the same sweep with and without a
	// ProgressFunc installed. The hook is one atomic add plus an indirect
	// call per fault; the delta between these two should stay under 2%.
	for _, hooked := range []bool{false, true} {
		name := "progress-off"
		if hooked {
			name = "progress-on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			var last int64
			if hooked {
				ctx = fault.WithProgress(ctx, func(done, total int64) { atomic.StoreInt64(&last, done) })
			}
			camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: 2, DetectOnly: true})
			for i := 0; i < b.N; i++ {
				if _, _, err := camp.RunCheckpoint(ctx, nil, faults); err != nil {
					b.Fatal(err)
				}
			}
			if hooked && atomic.LoadInt64(&last) != int64(len(faults)) {
				b.Fatalf("final progress %d, want %d", atomic.LoadInt64(&last), len(faults))
			}
			b.ReportMetric(float64(len(faults)), "faults/op")
		})
	}
}

// BenchmarkPodem measures deterministic test generation per fault.
func BenchmarkPodem(b *testing.B) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	u := fault.NewUniverse(d.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := u.Collapsed[i%len(u.Collapsed)]
		atpg.Podem(d.N, f, 100)
	}
}

// BenchmarkUarchCycles measures simulated instructions per second (one
// committed instruction per op) on the Rescue core at 90 nm and at 18 nm,
// where core.ScaleFor's longer memory latency and misprediction penalty
// leave most cycles idle. The steady state should not allocate.
func BenchmarkUarchCycles(b *testing.B) {
	prof, _ := workload.ByName("gzip")
	for _, nm := range []int{90, 18} {
		b.Run(fmt.Sprintf("%dnm", nm), func(b *testing.B) {
			ns := core.ScaleFor(area.Node(nm))
			p := uarch.RescueParams()
			p.MemLatencyScale = ns.MemLatencyScale
			p.FrontendDepth += ns.ExtraMispred
			s, err := uarch.New(p, prof)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(0, int64(b.N))
		})
	}
}

// BenchmarkNetlistEval measures 64-lane full-netlist evaluation.
func BenchmarkNetlistEval(b *testing.B) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	st := d.N.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.EvalComb(netlist.NoFault)
	}
}

// BenchmarkICIAudit measures the cone analysis of the Rescue netlist.
func BenchmarkICIAudit(b *testing.B) {
	sys, err := core.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Design.N.FanInComps()
	}
}
