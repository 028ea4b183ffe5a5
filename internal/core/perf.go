package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rescue/internal/area"
	"rescue/internal/fault"
	"rescue/internal/obs"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// NodeScale carries the Section 5 technology-scaling knobs: each halving of
// device area multiplies memory latency by 1.5 and adds 2 cycles to the
// branch misprediction penalty.
type NodeScale struct {
	MemLatencyScale float64
	ExtraMispred    int
}

// ScaleFor computes the scaling knobs for a node.
func ScaleFor(node area.Scaling) NodeScale {
	return NodeScale{
		MemLatencyScale: math.Pow(1.5, node.Halvings),
		ExtraMispred:    int(math.Round(2 * node.Halvings)),
	}
}

func (ns NodeScale) apply(p uarch.Params) uarch.Params {
	p.MemLatencyScale = ns.MemLatencyScale
	p.FrontendDepth += ns.ExtraMispred
	return p
}

// IPCRow is one bar pair of Figure 8.
type IPCRow struct {
	Benchmark      string
	Baseline       float64
	Rescue         float64
	DegradationPct float64
}

// parallelMapCtx runs jobs across workers goroutines (<= 0 = all CPUs)
// with cooperative cancellation at job granularity: once ctx is done no new
// jobs are dispatched, in-flight jobs finish, and the context's cause is
// returned.
func parallelMapCtx(ctx context.Context, n, workers int, f func(i int)) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			err = context.Cause(ctx)
			break dispatch
		case ch <- i:
		}
	}
	close(ch)
	wg.Wait()
	return err
}

// IPCStudyFlow reproduces Figure 8: fault-free baseline vs. Rescue IPC
// for the given benchmarks (nil = all 23) at an explicit simulation
// concurrency degree (<= 0 = all cores). Workers accumulate into disjoint
// per-index slots — no shared state, nothing to lock — so the result is
// identical at any worker count. Once ctx is done no new benchmark
// simulations start and the context's cause is returned (the partial rows
// alongside it).
func IPCStudyFlow(ctx context.Context, benchNames []string, warmup, commit int64, workers int) ([]IPCRow, error) {
	defer obs.Span(ctx, "ipc_study")()
	profs, err := resolve(benchNames)
	if err != nil {
		return nil, err
	}
	rows := make([]IPCRow, len(profs))
	errs := make([]error, len(profs))
	progress := fault.ProgressFromContext(ctx)
	var done atomic.Int64
	cerr := parallelMapCtx(ctx, len(profs), workers, func(i int) {
		prog := workload.Compile(profs[i])
		var ipc [2]float64 // baseline, Rescue
		for k, p := range [2]uarch.Params{uarch.DefaultParams(), uarch.RescueParams()} {
			s, err := uarch.NewFromSource(p, prog.Gen())
			if err != nil {
				errs[i] = err
				continue
			}
			ipc[k] = s.Run(warmup, commit).IPC()
		}
		rows[i] = IPCRow{
			Benchmark: profs[i].Name,
			Baseline:  ipc[0],
			Rescue:    ipc[1],
		}
		if ipc[0] > 0 {
			rows[i].DegradationPct = (1 - ipc[1]/ipc[0]) * 100
		}
		if progress != nil {
			progress(done.Add(1), int64(len(profs)))
		}
	})
	if cerr != nil {
		return rows, cerr
	}
	for _, e := range errs {
		if e != nil {
			return rows, e
		}
	}
	return rows, nil
}

func resolve(names []string) ([]workload.Profile, error) {
	if names == nil {
		return workload.Benchmarks(), nil
	}
	var out []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// PerfModel holds, for one technology node, the per-benchmark baseline IPC
// and the Rescue IPC of every live degraded configuration — the inputs EQ 3
// needs.
type PerfModel struct {
	Node     area.Scaling
	Baseline map[string]float64
	Rescue   map[string]map[yield.CoreConfig]float64
}

// toDegraded converts a yield configuration into simulator knobs.
func toDegraded(c yield.CoreConfig) uarch.Degraded {
	return uarch.Degraded{
		FEGroupsDisabled:  c.FEDown,
		IntGroupsDisabled: c.IntBEDown,
		FPGroupsDisabled:  c.FPBEDown,
		IntIQHalvesDown:   c.IntIQDown,
		FPIQHalvesDown:    c.FPIQDown,
		LSQHalvesDown:     c.LSQDown,
	}
}

// BuildPerfModelFlow simulates every (benchmark, degraded configuration)
// pair at a node. This is the expensive step of Figure 9; warmup/commit
// control the accuracy/runtime trade, workers the simulation concurrency
// (<= 0 = all cores). Once ctx is done no new simulations start and the
// context's cause is returned.
func BuildPerfModelFlow(ctx context.Context, node area.Scaling, benchNames []string, warmup, commit int64, workers int) (*PerfModel, error) {
	return BuildPerfModelFlowParams(ctx, node, uarch.DefaultParams(), uarch.RescueParams(), benchNames, warmup, commit, workers)
}

// BuildPerfModelFlowParams is BuildPerfModelFlow over an explicit
// (baseline, Rescue) parameter pair instead of the paper's Table 1
// machines — the entry point for design-space variants. Node scaling is
// applied on top of both, exactly as for the fixed configuration.
func BuildPerfModelFlowParams(ctx context.Context, node area.Scaling, baseParams, rescParams uarch.Params, benchNames []string, warmup, commit int64, workers int) (*PerfModel, error) {
	defer obs.Span(ctx, "perf_model")()
	if err := baseParams.Validate(); err != nil {
		return nil, err
	}
	if err := rescParams.Validate(); err != nil {
		return nil, err
	}
	profs, err := resolve(benchNames)
	if err != nil {
		return nil, err
	}
	// each benchmark's program is compiled once, by its first simulation,
	// and walked afresh by every simulation
	progs := make([]func() *workload.Program, len(profs))
	for b, prof := range profs {
		progs[b] = sync.OnceValue(func() *workload.Program { return workload.Compile(prof) })
	}
	ns := ScaleFor(node)
	cfgs := yield.Configs()
	pm := &PerfModel{
		Node:     node,
		Baseline: map[string]float64{},
		Rescue:   map[string]map[yield.CoreConfig]float64{},
	}
	type job struct {
		bench int
		cfg   int // -1 = baseline
	}
	var jobs []job
	for b := range profs {
		jobs = append(jobs, job{b, -1})
		for c := range cfgs {
			jobs = append(jobs, job{b, c})
		}
	}
	results := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	progress := fault.ProgressFromContext(ctx)
	var done atomic.Int64
	cerr := parallelMapCtx(ctx, len(jobs), workers, func(i int) {
		j := jobs[i]
		var p uarch.Params
		if j.cfg < 0 {
			p = ns.apply(baseParams)
		} else {
			p = ns.apply(rescParams)
			p.Degr = toDegraded(cfgs[j.cfg])
		}
		s, err := uarch.NewFromSource(p, progs[j.bench]().Gen())
		if err == nil {
			results[i] = s.Run(warmup, commit).IPC()
		}
		errs[i] = err
		if progress != nil {
			progress(done.Add(1), int64(len(jobs)))
		}
	})
	if cerr != nil {
		return nil, cerr
	}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		name := profs[j.bench].Name
		if j.cfg < 0 {
			pm.Baseline[name] = results[i]
		} else {
			if pm.Rescue[name] == nil {
				pm.Rescue[name] = map[yield.CoreConfig]float64{}
			}
			pm.Rescue[name][cfgs[j.cfg]] = results[i]
		}
	}
	return pm, nil
}

// YATRow is one bar group of Figure 9: a (node, growth) scenario averaged
// across benchmarks. Relative values are normalized per benchmark by the
// ideal (100% yield, no degradation) chip YAT.
type YATRow struct {
	StagnateNM, NodeNM int
	Growth             float64
	Cores              int
	RelNone            float64
	RelCS              float64
	RelRescue          float64
	// RescueOverCSPct is the headline: (Rescue/CS − 1) × 100.
	RescueOverCSPct float64
}

// YATStudy reproduces one panel of Figure 9 for the given PWP-stagnation
// node, using per-node performance models (one per plotted node).
func YATStudy(stagnate area.Scaling, models map[int]*PerfModel) ([]YATRow, error) {
	var rows []YATRow
	baseArea := area.BaselineWithScan()
	rescArea := area.Rescue()
	for _, node := range area.Nodes() {
		pm, ok := models[node.NodeNM]
		if !ok {
			return nil, fmt.Errorf("core: no performance model for %dnm", node.NodeNM)
		}
		for _, g := range area.GrowthRates() {
			var sumNone, sumCS, sumRescue float64
			var count int
			var cores int
			for bench, full := range pm.Baseline {
				baseCM := yield.CoreModel{Area: baseArea, Full: full}
				rescCM := yield.CoreModel{
					Area: rescArea,
					Full: pm.Rescue[bench][yield.CoreConfig{}],
					IPC:  pm.Rescue[bench],
				}
				r := yield.Chip(node, stagnate, g, baseCM, rescCM)
				cores = r.Cores
				sumNone += r.NoRedundancy / r.Ideal
				sumCS += r.CoreSparing / r.Ideal
				sumRescue += r.Rescue / r.Ideal
				count++
			}
			row := YATRow{
				StagnateNM: stagnate.NodeNM,
				NodeNM:     node.NodeNM,
				Growth:     g,
				Cores:      cores,
				RelNone:    sumNone / float64(count),
				RelCS:      sumCS / float64(count),
				RelRescue:  sumRescue / float64(count),
			}
			if row.RelCS > 0 {
				row.RescueOverCSPct = (row.RelRescue/row.RelCS - 1) * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
