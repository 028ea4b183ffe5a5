package loadgen

import (
	"context"
	"fmt"
	"time"
)

// NoisyNeighborConfig parameterizes the canned multi-tenant overload
// scenario: a polite victim tenant submitting warm interactive work at a
// modest rate, and an aggressor tenant flooding the daemon with cold
// campaign jobs at many times that rate. The gate asks the only question
// that matters for fair scheduling: does the victim's warm p99 under
// contention stay within Bound× its solo baseline?
type NoisyNeighborConfig struct {
	// Seed drives both populations. The victim's population is built from
	// Seed alone, so its schedule is byte-identical between the solo
	// baseline leg and the contended legs — the comparison is apples to
	// apples by construction.
	Seed int64
	// Duration is each leg's schedule horizon. 0 = 8s.
	Duration time.Duration
	// Victim and Aggressor name the two tenants. Defaults "victim" and
	// "aggressor".
	Victim, Aggressor string
	// VictimClients/AggressorClients size the populations. 0 = 2 and 4.
	VictimClients, AggressorClients int
	// VictimRPS is the victim's aggregate arrival rate. 0 = 2.
	VictimRPS float64
	// AggressorMult scales the aggressor's rate off the victim's:
	// aggressor RPS = VictimRPS * AggressorMult. 0 = 15.
	AggressorMult float64
	// Bound is the allowed fair-mode degradation multiple of the victim's
	// warm p99 over its solo baseline. 0 = 3.
	Bound float64
	// FloorMS guards tiny solo baselines from measurement noise: the fair
	// budget is max(Bound*solo, FloorMS). A warm victim job's solo p99 is
	// single-digit milliseconds, so the binding budget is usually this
	// floor — it must sit above the CPU-sharing noise of one aggressor
	// campaign running beside the victim (tens of ms) and below the
	// queue-wait a FIFO daemon imposes (hundreds of ms to seconds).
	// 0 = 250.
	FloorMS float64
	// VictimProfiles is the victim's kind mix. Default: warm small table3
	// only — pure artifact-cache serving.
	VictimProfiles []Profile
	// AggressorProfiles is the aggressor's kind mix. Default: cold
	// full-size isolation campaigns at the paper's 1000 faults per stage
	// on one campaign worker (~0.2s each on a 2-vCPU Xeon), so a job's
	// cost does not shrink on a host with more cores and the aggressor's
	// arrival rate outruns its drain rate through two slots — the backlog
	// is what exposes the difference between fair scheduling and FIFO.
	AggressorProfiles []Profile
}

func (c *NoisyNeighborConfig) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 8 * time.Second
	}
	if c.Victim == "" {
		c.Victim = "victim"
	}
	if c.Aggressor == "" {
		c.Aggressor = "aggressor"
	}
	if c.VictimClients == 0 {
		c.VictimClients = 2
	}
	if c.AggressorClients == 0 {
		c.AggressorClients = 4
	}
	if c.VictimRPS == 0 {
		c.VictimRPS = 2
	}
	if c.AggressorMult == 0 {
		c.AggressorMult = 15
	}
	if c.Bound == 0 {
		c.Bound = 3
	}
	if c.FloorMS == 0 {
		c.FloorMS = 250
	}
	if len(c.VictimProfiles) == 0 {
		c.VictimProfiles = []Profile{
			{Kind: "table3", Weight: 1, Params: map[string]any{"small": true}},
		}
	}
	if len(c.AggressorProfiles) == 0 {
		c.AggressorProfiles = []Profile{
			{Kind: "isolation", Weight: 1, SeedKey: "seed",
				Params: map[string]any{"workers": 1}},
		}
	}
}

// BuildNoisyNeighbor compiles the scenario's two schedules: the victim
// alone (the baseline leg) and victim+aggressor merged (the contended
// legs). The victim population is derived from the same seed in both, so
// its arrival times and bodies are identical across legs.
func BuildNoisyNeighbor(cfg NoisyNeighborConfig) (solo, combined *Schedule, err error) {
	cfg.setDefaults()
	victimCfg := Config{
		Seed:     cfg.Seed,
		Clients:  cfg.VictimClients,
		Duration: cfg.Duration,
		RPS:      cfg.VictimRPS,
		HitRatio: 1,
		Profiles: cfg.VictimProfiles,
		Tenant:   cfg.Victim,
	}
	solo, err = Build(victimCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: victim schedule: %w", err)
	}
	victim2, err := Build(victimCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: victim schedule: %w", err)
	}
	aggressor, err := Build(Config{
		Seed:     cfg.Seed + 1,
		Clients:  cfg.AggressorClients,
		Duration: cfg.Duration,
		RPS:      cfg.VictimRPS * cfg.AggressorMult,
		HitRatio: 0,
		Profiles: cfg.AggressorProfiles,
		Tenant:   cfg.Aggressor,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("loadgen: aggressor schedule: %w", err)
	}
	return solo, Merge(victim2, aggressor), nil
}

// RunNoisyNeighbor executes the scenario and grades it:
//
//  1. solo leg — the victim alone against opts.BaseURL (fair daemon),
//     establishing its uncontended warm p99;
//  2. fair leg — victim + aggressor against the same daemon; the victim's
//     warm p99 must stay within max(Bound*solo, FloorMS);
//  3. unfair leg (when unfairBase != "") — the same combined workload
//     against a daemon running -fair=false, which must violate that
//     budget (or starve the victim outright). A gate that also passes
//     without fair scheduling is measuring nothing; this leg proves the
//     mechanism, not just the number.
//
// The returned report is the fair leg's, with Fairness filled in.
// Violations make the report's Fairness.Violations non-empty; the caller
// decides the exit code.
func RunNoisyNeighbor(ctx context.Context, cfg NoisyNeighborConfig, opts Options, unfairBase string) (*Report, error) {
	cfg.setDefaults()
	solo, combined, err := BuildNoisyNeighbor(cfg)
	if err != nil {
		return nil, err
	}
	reportCfg := Config{Seed: cfg.Seed, Duration: cfg.Duration}

	soloOpts := opts
	soloOpts.Prewarm = true
	logf(opts, "noisy-neighbor: solo leg (%d victim requests)", len(solo.Requests))
	soloStats, err := Run(ctx, solo, soloOpts)
	if err != nil {
		return nil, fmt.Errorf("loadgen: solo leg: %w", err)
	}
	soloReport := BuildReport(reportCfg, solo, soloStats)
	soloVictim, ok := soloReport.PerTenant[cfg.Victim]
	if !ok || soloVictim.Warm.Count == 0 {
		return nil, fmt.Errorf("loadgen: solo leg produced no successful warm victim requests")
	}

	logf(opts, "noisy-neighbor: fair leg (%d requests, aggressor %.0f rps)",
		len(combined.Requests), cfg.VictimRPS*cfg.AggressorMult)
	fairStats, err := Run(ctx, combined, opts)
	if err != nil {
		return nil, fmt.Errorf("loadgen: fair leg: %w", err)
	}
	report := BuildReport(reportCfg, combined, fairStats)

	fr := &FairnessResult{
		Checked:   true,
		Victim:    cfg.Victim,
		Aggressor: cfg.Aggressor,
		Bound:     cfg.Bound,
		FloorMS:   cfg.FloorMS,
		SoloP99MS: soloVictim.Warm.P99MS,
	}
	budget := cfg.Bound * fr.SoloP99MS
	if budget < cfg.FloorMS {
		budget = cfg.FloorMS
	}
	fairVictim := report.PerTenant[cfg.Victim]
	fr.FairP99MS = fairVictim.Warm.P99MS
	switch {
	case fairVictim.Warm.Count == 0:
		fr.Violations = append(fr.Violations,
			"no victim warm request succeeded under fair scheduling")
	case fr.FairP99MS > budget:
		fr.Violations = append(fr.Violations, fmt.Sprintf(
			"victim warm p99 %.2fms under contention exceeds budget %.2fms (%.1fx solo %.2fms, floor %.1fms)",
			fr.FairP99MS, budget, cfg.Bound, fr.SoloP99MS, cfg.FloorMS))
	}

	if unfairBase != "" {
		unfairOpts := opts
		unfairOpts.BaseURL = unfairBase
		unfairOpts.Prewarm = true
		logf(opts, "noisy-neighbor: unfair leg against %s", unfairBase)
		unfairStats, err := Run(ctx, combined, unfairOpts)
		if err != nil {
			return nil, fmt.Errorf("loadgen: unfair leg: %w", err)
		}
		unfairReport := BuildReport(reportCfg, combined, unfairStats)
		unfairVictim := unfairReport.PerTenant[cfg.Victim]
		fr.UnfairP99MS = unfairVictim.Warm.P99MS
		fr.UnfairStarved = unfairVictim.Warm.Count == 0
		if !fr.UnfairStarved && fr.UnfairP99MS <= budget {
			fr.Violations = append(fr.Violations, fmt.Sprintf(
				"unfair mode kept victim warm p99 at %.2fms (within budget %.2fms) — the scenario is not contended enough to prove fair scheduling matters",
				fr.UnfairP99MS, budget))
		}
	}

	report.Fairness = fr
	return report, nil
}
