package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rescue/internal/fault"
)

// FlowFlags is the flag set shared by every campaign-shaped command —
// the -workers/-timeout/-checkpoint/-resume/-chaos-cancel-after/-progress
// plumbing that used to be copy-pasted across the flow CLIs. Register it
// with AddFlowFlags (full set) or AddStudyFlags (no checkpoint machinery),
// then call Validate after flag parsing and Context to build the command
// context.
type FlowFlags struct {
	Workers    int
	Timeout    time.Duration
	Checkpoint string
	Resume     bool
	ChaosAfter int64
	Progress   bool

	hasCheckpoint bool
}

// AddFlowFlags registers the full shared flag set on fs (pass
// flag.CommandLine for a command's top-level flags) and returns the
// destination struct.
func AddFlowFlags(fs *flag.FlagSet) *FlowFlags {
	ff := AddStudyFlags(fs)
	ff.hasCheckpoint = true
	fs.StringVar(&ff.Checkpoint, "checkpoint", "", "campaign checkpoint journal path (enables kill-and-resume)")
	fs.BoolVar(&ff.Resume, "resume", false, "resume a previous run from the -checkpoint journal")
	fs.Int64Var(&ff.ChaosAfter, "chaos-cancel-after", 0, "cancel after N campaign fault-sims (chaos testing; 0 = off)")
	return ff
}

// AddStudyFlags registers the subset used by the study CLIs (rescue-sim,
// rescue-yat), which run no checkpointable campaigns: -workers, -timeout,
// and -progress.
func AddStudyFlags(fs *flag.FlagSet) *FlowFlags {
	ff := &FlowFlags{}
	fs.IntVar(&ff.Workers, "workers", 0, "workers for PODEM search, fault simulation and cycle simulation (0 = all cores; output is identical at any count)")
	fs.DurationVar(&ff.Timeout, "timeout", 0, "overall deadline (0 = none); exceeded = exit 124")
	fs.BoolVar(&ff.Progress, "progress", false, "print live campaign progress to stderr")
	return ff
}

// Validate applies the usage-error checks (exit 2 on violation) and arms
// the chaos budget. Call it right after flag parsing.
func (ff *FlowFlags) Validate() {
	CheckWorkers(ff.Workers)
	CheckTimeout(ff.Timeout)
	if ff.hasCheckpoint {
		ArmChaos(ff.ChaosAfter)
	}
}

// OpenCheckpoint opens the journal named by -checkpoint/-resume (nil when
// checkpointing is off). Only valid after Validate on a full flag set.
func (ff *FlowFlags) OpenCheckpoint() *fault.Checkpoint {
	if !ff.hasCheckpoint {
		return nil
	}
	return OpenCheckpoint(ff.Checkpoint, ff.Resume)
}

// Context builds the standard command context — SIGINT/SIGTERM cancelled
// (exit 130), deadline-bounded when -timeout is set (exit 124) — and, when
// -progress was given, attaches a throttled stderr progress printer so
// every campaign under the flow reports live percent-complete.
func (ff *FlowFlags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := FlowContext(ff.Timeout)
	if ff.Progress {
		ctx = fault.WithProgress(ctx, StderrProgress())
	}
	return ctx, stop
}

// StderrProgress returns a ProgressFunc that prints campaign progress
// lines to stderr, throttled to one line per 200ms plus the completion of
// each campaign section, so multi-campaign flows stay readable in logs.
func StderrProgress() fault.ProgressFunc {
	var lastPrint atomic.Int64
	return func(done, total int64) {
		now := time.Now().UnixNano()
		if done != total {
			last := lastPrint.Load()
			if now-last < 200*int64(time.Millisecond) || !lastPrint.CompareAndSwap(last, now) {
				return
			}
		} else {
			lastPrint.Store(now)
		}
		pct := 100.0
		if total > 0 {
			pct = 100 * float64(done) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "progress: %d/%d faults (%.1f%%)\n", done, total, pct)
	}
}
