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

// Table3Opts parameterizes the Table 3 (scan-chain data) flow — the
// rescue-atpg command surface. Its JSON form is the params of a rescued
// table3 job.
type Table3Opts struct {
	Small      bool  `json:"small"`
	Seed       int64 `json:"seed"`       // 0 means the default seed 1
	Backtracks int   `json:"backtracks"` // 0 means the default 500
	Workers    int   `json:"workers"`
	Timing     bool  `json:"timing"`
}

func (o *Table3Opts) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Backtracks == 0 {
		o.Backtracks = 500
	}
}

// Table3Result carries the flow's campaign stats (partial on interrupt)
// and the summary rows.
type Table3Result struct {
	Stats fault.Stats
	Rows  []core.ScanSummary
}

// Table3 runs the paper's Table 3 flow for both design variants and
// writes the report to w — the exact text rescue-atpg prints, which is
// what results/table3_small.txt pins.
func Table3(ctx context.Context, w io.Writer, o Table3Opts, env Env) (Table3Result, error) {
	o.setDefaults()
	var res Table3Result

	gen := atpg.DefaultGenConfig()
	gen.Seed = o.Seed
	gen.MaxBacktracks = o.Backtracks
	gen.Workers = o.Workers

	fmt.Fprintln(w, "Table 3: Scan Chain data (paper: baseline 111294 faults / 2768 cells /")
	fmt.Fprintln(w, "1911 vectors / 5272449 cycles; Rescue 113490 / 3334 / 1787 / 5959645;")
	fmt.Fprintln(w, "Rescue = fewer vectors, ~13% more cycles). Our model is smaller but the")
	fmt.Fprintln(w, "same shape must hold.")
	fmt.Fprintln(w)
	if o.Timing {
		fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %9s %10s\n",
			"design", "faults", "cells", "vectors", "cycles", "coverage", "runtime")
	} else {
		fmt.Fprintf(w, "%-10s %10s %10s %10s %12s %9s\n",
			"design", "faults", "cells", "vectors", "cycles", "coverage")
	}

	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		start := time.Now()
		s, err := env.System(cfgFor(o.Small), 1, v)
		if err != nil {
			return res, fmt.Errorf("build: %w", err)
		}
		tp, err := env.TestProgram(ctx, s, gen)
		if err != nil {
			res.Stats = tp.Gen.Stats
			return res, err
		}
		res.Stats.Add(tp.Gen.Stats)
		sum := s.Summary(tp)
		res.Rows = append(res.Rows, sum)
		if o.Timing {
			fmt.Fprintf(w, "%-10s %10d %10d %10d %12d %8.2f%% %10s\n",
				sum.Variant, sum.Faults, sum.ScanCells, sum.Vectors, sum.Cycles,
				sum.Coverage*100, time.Since(start).Round(time.Millisecond))
			st := tp.Gen.Stats
			fmt.Fprintf(w, "           campaign: %d fault-sims, %d word-sims, %d gate events, %d workers\n",
				st.Faults, st.Words, st.Events, st.Workers)
		} else {
			fmt.Fprintf(w, "%-10s %10d %10d %10d %12d %8.2f%%\n",
				sum.Variant, sum.Faults, sum.ScanCells, sum.Vectors, sum.Cycles,
				sum.Coverage*100)
		}
	}
	if len(res.Rows) == 2 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Rescue vs baseline: cells %+.1f%%, vectors %+.1f%%, cycles %+.1f%%\n",
			pct(res.Rows[1].ScanCells, res.Rows[0].ScanCells),
			pct(res.Rows[1].Vectors, res.Rows[0].Vectors),
			pct(res.Rows[1].Cycles, res.Rows[0].Cycles))
	}
	return res, nil
}

func pct(a, b int) float64 { return (float64(a)/float64(b) - 1) * 100 }
