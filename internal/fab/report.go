package fab

import (
	"fmt"
	"io"
	"time"

	"rescue/internal/area"
	"rescue/internal/core"
	"rescue/internal/yield"
)

// ModelsFromPerf averages a node's performance model across its
// benchmarks into the two reference CoreModels the fab engine scores
// with: the baseline (Full only) and the Rescue model with every degraded
// configuration's mean IPC. Benchmarks are folded in sorted-name order
// (PerfModel.Benches) so the floating-point sums are reproducible.
func ModelsFromPerf(pm *core.PerfModel, baseArea, rescArea area.Model) (base, resc yield.CoreModel) {
	names := pm.Benches()
	base = yield.CoreModel{Area: baseArea}
	resc = yield.CoreModel{Area: rescArea, IPC: map[yield.CoreConfig]float64{}}
	for _, name := range names {
		base.Full += pm.Baseline[name]
		for cfg, ipc := range pm.Rescue[name] {
			resc.IPC[cfg] += ipc
		}
	}
	n := float64(len(names))
	if n == 0 {
		return base, resc
	}
	base.Full /= n
	for cfg := range resc.IPC {
		resc.IPC[cfg] /= n
	}
	resc.Full = resc.IPC[yield.CoreConfig{}]
	return base, resc
}

// relDelta returns (emp-ana)/ana in percent (0 when ana is 0).
func relDelta(emp, ana float64) float64 {
	if ana == 0 {
		return 0
	}
	return (emp/ana - 1) * 100
}

// WriteText renders the fleet report. With timing off the output is
// bit-stable across worker counts and kill/resume cycles — the golden and
// CI determinism checks diff it directly.
func (r *FleetReport) WriteText(w io.Writer, timing bool) {
	fmt.Fprintf(w, "rescue-fab: %d dies at %dnm (stagnate %dnm, growth %.0f%%), seed %d\n",
		r.Dies, r.NodeNM, r.StagnateNM, r.Growth*100, r.Seed)
	fmt.Fprintf(w, "%d cores/die, rescue core %.2f mm², defect density %.5f/mm² (alpha %.0f)\n",
		r.Cores, r.CoreArea, r.Density, r.Alpha)
	if r.SelfHealShare > 0 {
		fmt.Fprintf(w, "self-healing arrays cover %.0f%% of the chipkill bucket\n", r.SelfHealShare*100)
	}
	fmt.Fprintf(w, "defects: %d sampled (%d structural, %d direct, %d scan, %d chipkill-logic, %d healed), %d unique faults simulated\n",
		r.Defects.total(), r.Defects.Struct, r.Defects.Direct, r.Defects.Scan,
		r.Defects.CKLogic, r.Defects.Healed, r.UniqueFaults)
	c := r.Counts
	fmt.Fprintf(w, "core fates: %d clean, %d degraded, %d chain-fail, %d array-dead, %d chipkill, %d ambiguous, %d dead, %d field-fail\n",
		c.Clean, c.Degraded, c.ChainFail, c.ArrayDead, c.Chipkill, c.Ambiguous, c.Dead, c.FieldFail)
	fmt.Fprintf(w, "shipped %d/%d cores (%d test escapes became field failures)\n",
		c.Shipped(), r.Dies*r.Cores, c.FieldFail)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-19s %-12s %s\n", "", "empirical", "analytic", "delta")
	fmt.Fprintf(w, "%-12s %.4f ± %.4f     %-12.4f %+.2f%%\n",
		"core yield", r.EmpYield, r.EmpYieldCI, r.AnaYield, relDelta(r.EmpYield, r.AnaYield))
	fmt.Fprintf(w, "%-12s %.4f ± %.4f     %-12.4f %+.2f%%\n",
		"chip YAT", r.EmpYAT, r.EmpYATCI, r.AnaChip.Rescue, relDelta(r.EmpYAT, r.AnaChip.Rescue))
	fmt.Fprintf(w, "analytic context: no-redundancy %.4f, core-sparing %.4f, ideal %.4f\n",
		r.AnaChip.NoRedundancy, r.AnaChip.CoreSparing, r.AnaChip.Ideal)
	if timing {
		fmt.Fprintf(w, "campaign: %d faults (%d rehydrated), %d word-sims, %d gate events, %d workers, %s\n",
			r.Stats.Faults, r.Stats.Rehydrated, r.Stats.Words, r.Stats.Events,
			r.Stats.Workers, r.Stats.Wall.Round(time.Millisecond))
	}
}
