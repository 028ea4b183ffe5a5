package flows

import (
	"context"
	"fmt"
	"io"
	"time"

	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/rtl"
)

// IsolationOpts parameterizes the Section 6.1 isolation campaign — the
// rescue-isolate command surface. Its JSON form is the params of a
// rescued isolation job.
type IsolationOpts struct {
	Small    bool  `json:"small"`
	PerStage int   `json:"perStage"` // 0 means the paper's 1000
	Seed     int64 `json:"seed"`     // 0 means the default seed 2005
	Multi    bool  `json:"multi"`
	Workers  int   `json:"workers"`
	Timing   bool  `json:"timing"`
}

func (o *IsolationOpts) setDefaults() {
	if o.PerStage == 0 {
		o.PerStage = 1000
	}
	if o.Seed == 0 {
		o.Seed = 2005
	}
}

// IsolationResult carries the campaign stats (partial on interrupt), the
// report, and the count of non-isolated faults (nonzero = the paper's
// claim failed; rescue-isolate exits 1 on it).
type IsolationResult struct {
	Stats  fault.Stats
	Report core.IsolationReport
	Bad    int
}

// Isolation runs the fault-isolation campaign and writes the report to w —
// the exact text rescue-isolate prints, which is what
// results/isolation_small.txt pins.
func Isolation(ctx context.Context, w io.Writer, o IsolationOpts, env Env) (IsolationResult, error) {
	o.setDefaults()
	var res IsolationResult

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
	if o.Timing {
		fmt.Fprintf(w, "ATPG: %d vectors, %.2f%% coverage (%s)\n",
			tp.Gen.Vectors, tp.Gen.Coverage*100, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(w, "ATPG: %d vectors, %.2f%% coverage\n", tp.Gen.Vectors, tp.Gen.Coverage*100)
	}

	rep, err := s.IsolateCampaignFlow(ctx, tp, o.PerStage, core.Stages(), o.Seed, o.Workers, env.Ck)
	res.Report = rep
	if err != nil {
		res.Stats = rep.Stats
		return res, err
	}
	res.Stats = rep.Stats
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %9s %9s %7s %10s\n", "stage", "sampled", "isolated", "wrong", "ambiguous")
	for _, st := range core.Stages() {
		r := rep.PerStage[st]
		fmt.Fprintf(w, "%-10s %9d %9d %7d %10d\n", st, r.Sampled, r.Isolated, r.Wrong, r.Ambiguous)
	}
	total := rep.Isolated + rep.Wrong + rep.Ambiguous
	fmt.Fprintln(w)
	fmt.Fprintf(w, "TOTAL: %d faults simulated, %d isolated correctly, %d wrong, %d ambiguous\n",
		total, rep.Isolated, rep.Wrong, rep.Ambiguous)
	fmt.Fprintf(w, "(paper: 6000/6000 isolated; %d undetectable faults were resampled)\n", rep.Undetected)
	if o.Timing {
		fmt.Fprintf(w, "campaign: %d faults, %d word-sims, %d gate events, %d workers, %s\n",
			rep.Stats.Faults, rep.Stats.Words, rep.Stats.Events, rep.Stats.Workers,
			rep.Stats.Wall.Round(time.Millisecond))
	}

	if o.Multi {
		ok, trials, err := s.MultiFaultIsolationFlow(ctx, tp, 200, 3, o.Seed, o.Workers, env.Ck)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(w, "multi-fault corollary: %d/%d trials — all simultaneous faults in\n", ok, trials)
		fmt.Fprintln(w, "distinct super-components isolated by one pattern set")
	}
	res.Bad = rep.Wrong + rep.Ambiguous
	return res, nil
}
