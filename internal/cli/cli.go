// Package cli holds plumbing shared by the rescue commands: flag
// validation with usage-style exits, signal-driven contexts, checkpoint
// opening, and the exit-code convention —
//
//	0    success
//	1    runtime failure (build error, I/O, worker panic)
//	2    usage error (bad flags or arguments)
//	3    degraded (the work completed and the output is valid, but part of
//	     it ran in a fallback mode — e.g. shards recomputed locally after
//	     the worker pool was exhausted)
//	124  deadline exceeded (-timeout); in-flight work finished and any
//	     checkpoint journal flushed, like an interrupt
//	130  interrupted (SIGINT/SIGTERM or chaos budget); in-flight work was
//	     finished and any checkpoint journal flushed before exiting
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rescue/internal/fault"
)

// Exit codes.
const (
	ExitRuntime     = 1
	ExitUsage       = 2
	ExitDegraded    = 3
	ExitDeadline    = 124
	ExitInterrupted = 130
)

// Usagef reports a usage error on stderr and exits with code 2.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "usage error: "+format+"\n", args...)
	os.Exit(ExitUsage)
}

// Fatalf reports a runtime error on stderr and exits with code 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(ExitRuntime)
}

// CheckWorkers validates a -workers flag: negative counts are a usage
// error (0 means all cores).
func CheckWorkers(workers int) {
	if workers < 0 {
		Usagef("-workers must be >= 0 (0 = all cores), got %d", workers)
	}
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM. Flows
// observe the cancellation at chunk boundaries: in-flight chunks finish,
// the checkpoint journal (if any) is flushed, and the command exits 130.
// A second signal kills the process the hard way (Go default behavior is
// restored once the context fires).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// CheckTimeout validates a -timeout flag: negative durations are a usage
// error (0 means no deadline).
func CheckTimeout(d time.Duration) {
	if d < 0 {
		Usagef("-timeout must be >= 0 (0 = no deadline), got %v", d)
	}
}

// FlowContext is the standard command context: cancelled by SIGINT or
// SIGTERM (exit 130 by convention) and, when timeout > 0, bounded by a
// deadline (exit 124).
func FlowContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := SignalContext()
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}

// OpenCheckpoint validates and opens the -checkpoint/-resume flag pair.
// An empty path (checkpointing off) returns nil; -resume without
// -checkpoint is a usage error; refusing to clobber an existing journal
// without -resume is a runtime error with guidance.
func OpenCheckpoint(path string, resume bool) *fault.Checkpoint {
	if resume && path == "" {
		Usagef("-resume requires -checkpoint <path>")
	}
	if path == "" {
		return nil
	}
	ck, err := fault.OpenCheckpoint(path, resume)
	if err != nil {
		Fatalf("checkpoint: %v", err)
	}
	return ck
}

// ArmChaos arms the process-wide chaos budget from a -chaos-cancel-after
// flag: after n campaign fault simulations every campaign cancels as if
// interrupted. 0 leaves chaos off; negative budgets are a usage error.
func ArmChaos(n int64) {
	if n < 0 {
		Usagef("-chaos-cancel-after must be >= 0, got %d", n)
	}
	if n > 0 {
		fault.ChaosCancelAfterSims(n)
	}
}

// ExitFlow reports a flow error and exits with the conventional code:
// cooperative interruptions print the partial campaign stats and the
// journal path, then exit 124 (deadline) or 130 (signal, chaos budget);
// anything else — a worker panic included — exits 1.
func ExitFlow(err error, st fault.Stats, ck *fault.Checkpoint) {
	if fault.Interrupted(err) {
		code, what := ExitInterrupted, "interrupted"
		if errors.Is(err, context.DeadlineExceeded) {
			code, what = ExitDeadline, "deadline exceeded"
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		fmt.Fprintf(os.Stderr,
			"partial campaign: %d fault-sims (%d rehydrated), %d word-sims, %d gate events, %s\n",
			st.Faults, st.Rehydrated, st.Words, st.Events,
			st.Wall.Round(time.Millisecond))
		if ck != nil {
			fmt.Fprintf(os.Stderr, "checkpoint journal: %s — rerun with -resume to continue\n", ck.Path())
		}
		os.Exit(code)
	}
	Fatalf("%v", err)
}

// ExitErr reports a plain (non-campaign) error and exits by the code
// convention: deadline 124, interrupt 130, anything else 1. A nil error
// returns without exiting.
func ExitErr(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "deadline exceeded: %v\n", err)
		os.Exit(ExitDeadline)
	}
	if errors.Is(err, context.Canceled) || fault.Interrupted(err) {
		fmt.Fprintf(os.Stderr, "interrupted: %v\n", err)
		os.Exit(ExitInterrupted)
	}
	Fatalf("%v", err)
}

// CtxWriter wraps a writer so writes fail once ctx is done — it makes
// long emitters (Verilog dumps, trace recording) interruptible without
// threading a context through their inner loops. The context's cause is
// returned as the write error, so errors.Is sees Canceled or
// DeadlineExceeded even through bufio's sticky-error plumbing.
type CtxWriter struct {
	Ctx context.Context
	W   io.Writer
}

// Write forwards to the wrapped writer unless the context is done.
func (cw CtxWriter) Write(p []byte) (int, error) {
	if cw.Ctx.Err() != nil {
		return 0, context.Cause(cw.Ctx)
	}
	return cw.W.Write(p)
}

// CtxReader is CtxWriter's read-side twin: reads fail with the context's
// cause once ctx is done.
type CtxReader struct {
	Ctx context.Context
	R   io.Reader
}

// Read forwards to the wrapped reader unless the context is done.
func (cr CtxReader) Read(p []byte) (int, error) {
	if cr.Ctx.Err() != nil {
		return 0, context.Cause(cr.Ctx)
	}
	return cr.R.Read(p)
}
