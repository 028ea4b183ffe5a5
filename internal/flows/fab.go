package flows

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/fab"
	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// FabOpts parameterizes the Monte Carlo die-lifecycle fleet — the
// rescue-fab command surface. NodeNM must be one of area.Nodes()
// (validated by ValidNode); zero values take the command's defaults.
// Its JSON form is the params of a rescued fab job; GrowthSet and
// BenchSet are not params, so a job's zero growth or empty bench takes
// the default.
type FabOpts struct {
	Dies          int     `json:"dies"`     // 0 = 10000
	NodeNM        int     `json:"node"`     // 0 = 18
	StagnateNM    int     `json:"stagnate"` // 0 = 90
	Growth        float64 `json:"growth"`
	GrowthSet     bool    `json:"-"`    // distinguishes an explicit 0 growth from the default 0.30
	Seed          int64   `json:"seed"` // 0 = 2026
	Workers       int     `json:"workers"`
	Small         bool    `json:"small"`
	Bench         string  `json:"bench"` // comma-separated; "" = all 23 — note rescue-fab defaults to "gzip"
	BenchSet      bool    `json:"-"`
	Warmup        int64   `json:"warmup"` // 0 = 2000
	Commit        int64   `json:"commit"` // 0 = 10000
	SelfHealShare float64 `json:"selfhealShare"`
	Timing        bool    `json:"timing"`
}

func (o *FabOpts) setDefaults() {
	if o.Dies == 0 {
		o.Dies = 10_000
	}
	if o.NodeNM == 0 {
		o.NodeNM = 18
	}
	if o.StagnateNM == 0 {
		o.StagnateNM = 90
	}
	if !o.GrowthSet && o.Growth == 0 {
		o.Growth = 0.30
	}
	if o.Seed == 0 {
		o.Seed = 2026
	}
	if !o.BenchSet && o.Bench == "" {
		o.Bench = "gzip"
	}
	if o.Warmup == 0 {
		o.Warmup = 2_000
	}
	if o.Commit == 0 {
		o.Commit = 10_000
	}
}

// ValidNode resolves a -node value against the supported technology nodes.
func ValidNode(nm int) (area.Scaling, bool) {
	for _, n := range area.Nodes() {
		if n.NodeNM == nm {
			return n, true
		}
	}
	return area.Scaling{}, false
}

// FabResult carries the fleet report and the campaign stats behind it
// (partial on interrupt).
type FabResult struct {
	Stats  fault.Stats
	Report *fab.FleetReport
}

// Fab runs the die-lifecycle fleet and writes the report to w — the exact
// text rescue-fab prints, which is what results/fab_small.txt pins.
func Fab(ctx context.Context, w io.Writer, o FabOpts, env Env) (FabResult, error) {
	o.setDefaults()
	var res FabResult

	node, ok := ValidNode(o.NodeNM)
	if !ok {
		return res, fmt.Errorf("fab: unsupported node %dnm", o.NodeNM)
	}
	if o.Dies < 1 {
		return res, fmt.Errorf("fab: need at least one die, got %d", o.Dies)
	}
	if o.Growth < 0 {
		return res, fmt.Errorf("fab: negative growth rate %v", o.Growth)
	}

	start := time.Now()
	s, err := env.System(cfgFor(o.Small), 1, rtl.RescueDesign)
	if err != nil {
		return res, fmt.Errorf("build: %w", err)
	}
	if !s.Audit.OK() {
		return res, fmt.Errorf("ICI audit failed: %d violations", len(s.Audit.Violations))
	}
	fmt.Fprintf(w, "built %s: %d gates, %d scan cells; ICI audit clean\n",
		s.Design.N.Name, s.Design.N.NumGates(), s.Design.N.NumFFs())

	gen := atpg.DefaultGenConfig()
	gen.Workers = o.Workers
	tp, err := env.TestProgram(ctx, s, gen)
	if err != nil {
		res.Stats = tp.Gen.Stats
		return res, err
	}
	fmt.Fprintf(w, "ATPG: %d vectors, %.2f%% coverage\n", tp.Gen.Vectors, tp.Gen.Coverage*100)

	var names []string
	if o.Bench != "" {
		names = strings.Split(o.Bench, ",")
	}
	pm, err := env.PerfModel(ctx, o.NodeNM, uarch.DefaultParams(), uarch.RescueParams(), names, o.Warmup, o.Commit, o.Workers)
	if err != nil {
		return res, err
	}
	rescArea := area.Rescue()
	if o.SelfHealShare > 0 {
		rescArea = area.RescueSelfHeal(o.SelfHealShare)
	}
	base, resc := fab.ModelsFromPerf(pm, area.BaselineWithScan(), rescArea)
	if o.Timing {
		fmt.Fprintf(w, "degraded-IPC model: %d configurations x %d benchmarks (%s)\n",
			len(resc.IPC), len(pm.Baseline), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(w, "degraded-IPC model: %d configurations x %d benchmarks\n",
			len(resc.IPC), len(pm.Baseline))
	}

	eng, err := fab.New(s, tp, base, resc, fab.Config{
		Dies: o.Dies, Node: node, Stagnate: area.Node(o.StagnateNM),
		Growth: o.Growth, Seed: o.Seed, Workers: o.Workers,
		SelfHealShare: o.SelfHealShare,
	})
	if err != nil {
		return res, err
	}
	rep, err := eng.Run(ctx, env.Ck)
	res.Report = rep
	res.Stats = rep.Stats
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w)
	rep.WriteText(w, o.Timing)
	return res, nil
}
