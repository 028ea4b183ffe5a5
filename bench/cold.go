package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"time"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/ici"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/yield"
)

// setupRepeats is how many bare daemon start-stop cycles a cold run times
// before its jobs: start-up takes milliseconds, so its median needs more
// samples than the few jobs a run holds.
const setupRepeats = 5

// minAttributed is the least share of a traced cold job that its layer
// spans must account for.
const minAttributed = 0.95

// coldWorkload is one fixed job run on fresh daemons, so every artifact
// is built from scratch. Its inputs do not depend on the run's seed: a
// fixed job is checked byte for byte against its golden file on every
// run, and the ATPG seed's effect on PODEM work would widen the spread of
// run medians (see README.md).
type coldWorkload struct {
	spec []byte
	// golden is the report every job must return.
	golden string
	// rows picks the result rows out of a report.
	rows *regexp.Regexp
	// replay runs the job in-process with spans around the calls into
	// each layer, and returns the tree, the rendered result rows and the
	// job's per-layer values.
	replay func(ctx context.Context) (*Span, []string, map[string]float64, error)
}

var table3Cold = &coldWorkload{
	spec:   []byte(`{"kind":"table3","params":{"small":true}}`),
	golden: table3Golden,
	rows:   regexp.MustCompile(`(?m)^(baseline|rescue) .*$`),
	replay: replayTable3,
}

var yatCold = &coldWorkload{
	spec:   []byte(fmt.Sprintf(`{"kind":"yat","params":{"bench":%q,"warmup":%d,"commit":%d}}`, yatBench, yatWarmup, yatCommit)),
	golden: "bench/testdata/yat_gzip_small.txt",
	rows:   regexp.MustCompile(`(?m)^ *\d+nm +\d+% .*$`),
	replay: replayYAT,
}

// table3Golden is rescue-atpg -small -timing=false's report, which the
// table3 job with default params returns.
const table3Golden = "results/table3_small.txt"

// fits reports whether one more job, as long as the mean of done, ends
// within window of start. The first job always runs. Cold jobs take
// seconds, so a run holds the whole jobs that fit rather than stopping
// the clock mid-job or running past the window.
func fits(start time.Time, window time.Duration, done []float64) bool {
	if len(done) == 0 {
		return true
	}
	return time.Since(start).Seconds()+sum(done)/float64(len(done)) <= window.Seconds()
}

// runCold runs the job back to back, each time on a fresh daemon, while
// another job fits in window. Every report must equal the golden.
func runCold(ctx context.Context, w *coldWorkload, window time.Duration) (*outcome, error) {
	golden, err := os.ReadFile(w.golden)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	hc := newClient(1)
	var setups, lat, rss []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := startDaemon(ctx, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		d.stop()
		hc.CloseIdleConnections()
	}
	start := time.Now()
	for fits(start, window, lat) {
		d, err := startDaemon(ctx, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
		j, err := runJob(ctx, hc, d.base, w.spec)
		mb, rerr := d.peakRSSMB()
		d.stop()
		hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, rerr
		}
		o.attempted++
		lat = append(lat, j.latency())
		rss = append(rss, mb)
		switch {
		case j.state != "succeeded":
			o.fail("job ended %s", j.state)
		case !bytes.Equal(j.out, golden):
			o.fail("report differs from %s", w.golden)
		}
	}
	o.set("setup_s", median(setups), len(setups))
	o.set("job_p50_s", percentile(lat, 50), len(lat))
	o.set("job_p90_s", percentile(lat, 90), len(lat))
	o.set("job_p99_s", percentile(lat, 99), len(lat))
	// Every cold job builds its artifacts: all of them are misses.
	o.set("miss_job_p50_s", percentile(lat, 50), len(lat))
	o.set("throughput_jobs_per_s", float64(len(lat))/sum(lat), len(lat))
	o.set("peak_rss_mb", median(rss), len(rss))
	o.latencyNote(lat)
	return o, nil
}

// traceCold replays the job in-process with layer spans while another
// replay fits in window. Each replay must render the golden's result
// rows, which every untraced job returns.
func traceCold(ctx context.Context, w *coldWorkload, window time.Duration) (*outcome, error) {
	golden, err := os.ReadFile(w.golden)
	if err != nil {
		return nil, err
	}
	want := w.rows.FindAllString(string(golden), -1)
	o := newOutcome()
	perJob := map[string][]float64{}
	start := time.Now()
	for fits(start, window, perJob["trace.root_s"]) {
		cpu0 := selfCPUSeconds()
		root, rows, layers, err := w.replay(ctx)
		if err != nil {
			return nil, err
		}
		layers["host.cpu_util"] = (selfCPUSeconds() - cpu0) / (root.Dur * float64(runtime.NumCPU()))
		layers["trace.root_s"] = root.Dur
		layers["trace.attributed_share"] = attributed(root)
		o.attempted++
		o.trees = append(o.trees, root)
		if !slices.Equal(rows, want) {
			o.fail("traced rows %q differ from %s's %q", rows, w.golden, want)
		}
		// Time outside every layer span means the replay misses a layer.
		if a := attributed(root); a < minAttributed {
			o.fail("layer spans cover only %.1f%% of the job", a*100)
		}
		for k, v := range layers {
			perJob[k] = append(perJob[k], v)
		}
	}
	for k, vs := range perJob {
		o.set(k, median(vs), len(vs))
	}
	return o, nil
}

// replayTable3 is the table3 flow (flows.Table3 with default options)
// called layer by layer: netlist build, scan insertion, ICI audit, fault
// universe and ATPG for each design variant. GenResult.Stats.Wall is the
// fault-sim campaign time inside ATPG; the rest of ATPG is PODEM and
// cube packing.
func replayTable3(ctx context.Context) (*Span, []string, map[string]float64, error) {
	gen := atpg.DefaultGenConfig()
	tr := startTrace("job.table3")
	root := tr.root
	var rows []string
	var st fault.Stats
	var vectors, untestable, aborted, detected, testable int
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		var (
			d     *rtl.Design
			chain *scan.Chain
			audit *ici.AuditResult
			u     *fault.Universe
			g     *atpg.GenResult
		)
		if _, err := tr.time(root, "rtl.build", func() (err error) {
			d, err = rtl.Build(rtl.Small(), v)
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		if _, err := tr.time(root, "scan.insert", func() (err error) {
			chain, err = scan.Insert(d.N, 1)
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
		tr.time(root, "ici.audit", func() error { audit = ici.Audit(d.N, d.Grouping); return nil })
		tr.time(root, "fault.universe", func() error { u = fault.NewUniverse(d.N); return nil })
		sp, err := tr.time(root, "atpg.generate", func() (err error) {
			g, err = atpg.GenerateFlow(ctx, chain, u, gen, nil)
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		sp.Children = append(sp.Children, &Span{
			Name: "fault.campaign", Start: sp.Start, Dur: g.Stats.Wall.Seconds(), Aggregate: true,
		})

		sys := &core.System{Design: d, Chain: chain, Audit: audit}
		sum := sys.Summary(&core.TestProgram{Universe: u, Gen: g})
		rows = append(rows, fmt.Sprintf("%-10s %10d %10d %10d %12d %8.2f%%",
			sum.Variant, sum.Faults, sum.ScanCells, sum.Vectors, sum.Cycles, sum.Coverage*100))
		st.Add(g.Stats)
		vectors += g.Vectors
		untestable += g.Untestable
		aborted += g.Aborted
		detected += g.Detected
		testable += g.Collapsed - g.Untestable
	}
	root = tr.finish(time.Now())
	total, self := layerTimes(root)
	layers := map[string]float64{
		"rtl.build_s":       total["rtl.build"],
		"scan.insert_s":     total["scan.insert"],
		"ici.audit_s":       total["ici.audit"],
		"fault.universe_s":  total["fault.universe"],
		"atpg.generate_s":   total["atpg.generate"],
		"atpg.search_s":     self["atpg.generate"],
		"atpg.search_share": self["atpg.generate"] / root.Dur,
		"atpg.vectors":      float64(vectors),
		"atpg.untestable":   float64(untestable),
		"atpg.aborted":      float64(aborted),
		"atpg.coverage":     float64(detected) / float64(testable),
		"fault.campaign_s":  st.Wall.Seconds(),
		"fault.word_sims":   float64(st.Words),
		"fault.gate_events": float64(st.Events),
	}
	if st.Words > 0 {
		layers["fault.ns_per_word_sim"] = float64(st.Wall.Nanoseconds()) / float64(st.Words)
	}
	return root, rows, layers, nil
}

// yatBench, yatWarmup and yatCommit are the yat-cold job's inputs, which
// are rescue-fab -small's performance model.
const (
	yatBench  = "gzip"
	yatWarmup = 2000
	yatCommit = 10000
)

// replayYAT is the yat flow (flows.YAT with the 90nm stagnation default)
// called layer by layer: one performance model per node, built by the
// cycle simulator, then the yield-adjusted-throughput study.
func replayYAT(ctx context.Context) (*Span, []string, map[string]float64, error) {
	tr := startTrace("job.yat")
	root := tr.root
	layers := map[string]float64{}
	models := map[int]*core.PerfModel{}
	var simTime float64
	for _, node := range area.Nodes() {
		name := fmt.Sprintf("core.perf_model_%dnm", node.NodeNM)
		var pm *core.PerfModel
		sp, err := tr.time(root, name, func() (err error) {
			pm, err = core.BuildPerfModelFlow(ctx, node, []string{yatBench}, yatWarmup, yatCommit, 0)
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		models[node.NodeNM] = pm
		layers[name+"_s"] = sp.Dur
		simTime += sp.Dur
	}
	var yrows []core.YATRow
	sp, err := tr.time(root, "yield.yat_study", func() (err error) {
		yrows, err = core.YATStudy(area.Node(90), models)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	layers["yield.yat_study_s"] = sp.Dur
	var rows []string
	for _, r := range yrows {
		rows = append(rows, fmt.Sprintf("%4dnm %6.0f%% %6d %8.3f %8.3f %8.3f %+11.1f%%",
			r.NodeNM, r.Growth*100, r.Cores, r.RelNone, r.RelCS, r.RelRescue, r.RescueOverCSPct))
	}
	root = tr.finish(time.Now())
	// Each model simulates the fault-free baseline plus every degraded
	// configuration, each for warmup+commit instructions.
	sims := len(area.Nodes()) * (1 + len(yield.Configs()))
	insts := float64(sims) * (yatWarmup + yatCommit)
	layers["uarch.sim_insts"] = insts
	layers["uarch.host_ns_per_inst"] = simTime * 1e9 / insts
	return root, rows, layers, nil
}
