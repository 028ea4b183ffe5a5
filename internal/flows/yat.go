package flows

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"rescue/internal/area"
	"rescue/internal/core"
	"rescue/internal/uarch"
)

// YATOpts parameterizes the Figure 9 yield-adjusted-throughput study — the
// rescue-yat command surface. Its JSON form is the params of a rescued
// yat job.
type YATOpts struct {
	StagnateNM int    `json:"stagnate"` // 0 = 90
	Bench      string `json:"bench"`    // comma-separated; "" = all 23
	Warmup     int64  `json:"warmup"`   // 0 = 20000
	Commit     int64  `json:"commit"`   // 0 = 150000
	Workers    int    `json:"workers"`
	Timing     bool   `json:"timing"` // print per-node model build durations
}

func (o *YATOpts) setDefaults() {
	if o.StagnateNM == 0 {
		o.StagnateNM = 90
	}
	if o.Warmup == 0 {
		o.Warmup = 20_000
	}
	if o.Commit == 0 {
		o.Commit = 150_000
	}
}

// YATResult carries the study rows, which are read-only: a served study's
// rows are shared by every job that reads them.
type YATResult struct {
	Rows []core.YATRow
}

// yatKey is everything that determines one Figure 9 panel's rows: the
// stagnation node and the perf model of every plotted node, in
// area.Nodes() order.
type yatKey struct {
	StagnateNM int     `json:"stagnate"`
	Models     []pmKey `json:"models"`
}

// YAT runs the Figure 9 study and writes the report to w — the exact text
// rescue-yat prints (model-build durations appear only with Timing).
func YAT(ctx context.Context, w io.Writer, o YATOpts, env Env) (YATResult, error) {
	o.setDefaults()
	var res YATResult

	var names []string
	if o.Bench != "" {
		names = strings.Split(o.Bench, ",")
	}

	fmt.Fprintf(w, "Figure 9%s: YAT with PWP stagnating at %dnm\n", yatPanel(o.StagnateNM), o.StagnateNM)
	fmt.Fprintln(w, "(building per-node degraded-IPC models: 65 simulations per benchmark per node)")
	models := map[int]*core.PerfModel{}
	key := yatKey{StagnateNM: o.StagnateNM}
	for _, node := range area.Nodes() {
		start := time.Now()
		pk := pmKey{uarch.DefaultParams(), uarch.RescueParams(), node.NodeNM, names, o.Warmup, o.Commit}
		pm, err := env.perfModel(ctx, pk, o.Workers)
		if err != nil {
			return res, err
		}
		models[node.NodeNM] = pm
		key.Models = append(key.Models, pk)
		if o.Timing {
			fmt.Fprintf(w, "  %dnm model built (%s)\n", node.NodeNM, time.Since(start).Round(time.Second))
		} else {
			fmt.Fprintf(w, "  %dnm model built\n", node.NodeNM)
		}
	}

	rows, _, err := cached(ctx, env, "yatrows", key, func() ([]core.YATRow, error) {
		return core.YATStudy(area.Node(o.StagnateNM), models)
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%5s %7s %6s %8s %8s %8s %12s\n",
		"node", "growth", "cores", "none", "+CS", "+Rescue", "Rescue/CS")
	for _, r := range rows {
		fmt.Fprintf(w, "%4dnm %6.0f%% %6d %8.3f %8.3f %8.3f %+11.1f%%\n",
			r.NodeNM, r.Growth*100, r.Cores, r.RelNone, r.RelCS, r.RelRescue, r.RescueOverCSPct)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "relative YAT = chip YAT / (cores x fault-free IPC), averaged over benchmarks")
	fmt.Fprintln(w, "paper headline (stagnate 90nm, 30% growth): +12% at 32nm, +22% at 18nm")
	return res, nil
}

func yatPanel(stagnate int) string {
	if stagnate == 90 {
		return "a"
	}
	return "b"
}
