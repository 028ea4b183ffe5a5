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

// DictOpts parameterizes the fault-dictionary build — the
// `rescue-dict build` command surface. Its JSON form is the params of a
// rescued dict job.
type DictOpts struct {
	Small   bool `json:"small"`
	Workers int  `json:"workers"`
}

// DictResult carries the dictionary, the campaign stats (partial on
// interrupt), and the detection summary.
type DictResult struct {
	Stats    fault.Stats
	Dict     *fault.Dictionary
	Detected int
	Faults   int
}

// DictBuild generates the test program, builds the full fault dictionary,
// and writes the CSV artifact to csvW. Progress commentary — what
// `rescue-dict build` prints to stdout around the CSV file — goes to
// infoW (pass io.Discard to get the bare artifact, as the daemon does).
func DictBuild(ctx context.Context, infoW, csvW io.Writer, o DictOpts, env Env) (DictResult, error) {
	var res DictResult
	sys, err := env.System(cfgFor(o.Small), 1, rtl.RescueDesign)
	if err != nil {
		return res, fmt.Errorf("build: %w", err)
	}
	gen := atpg.DefaultGenConfig()
	gen.Workers = o.Workers
	tp, err := env.TestProgram(ctx, sys, gen)
	if err != nil {
		res.Stats = tp.Gen.Stats
		return res, err
	}
	fmt.Fprintf(infoW, "building dictionary over %d collapsed faults, %d vectors...\n",
		tp.Universe.CountCollapsed(), tp.Gen.Vectors)
	d, st, err := env.Dictionary(ctx, sys, tp, gen, o.Workers)
	if err != nil {
		res.Stats = st
		return res, err
	}
	res.Stats = st
	fmt.Fprintf(infoW, "campaign: %d fault-sims, %d word-sims, %d gate events, %d workers, %s\n",
		st.Faults, st.Words, st.Events, st.Workers, st.Wall.Round(time.Millisecond))
	if err := d.WriteCSV(csvW); err != nil {
		return res, err
	}
	res.Dict = d
	res.Detected = d.Detected()
	res.Faults = tp.Universe.CountCollapsed()
	return res, nil
}

// DictSystem builds the (system, test program) pair the diagnose
// subcommand needs — shared with the build path so both see identical
// artifacts.
func DictSystem(ctx context.Context, small bool, workers int, env Env) (*core.System, *core.TestProgram, error) {
	sys, err := env.System(cfgFor(small), 1, rtl.RescueDesign)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	gen := atpg.DefaultGenConfig()
	gen.Workers = workers
	tp, err := env.TestProgram(ctx, sys, gen)
	if err != nil {
		return nil, tp, err
	}
	return sys, tp, nil
}
