package atpg

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/scan"
)

// smallBaseline returns the small Baseline design's scan chain and fault
// universe.
func smallBaseline(t *testing.T) (*scan.Chain, *fault.Universe) {
	t.Helper()
	d, err := rtl.Build(rtl.Small(), rtl.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c, fault.NewUniverse(d.N)
}

// waitGoroutines waits for the goroutine count to fall back to base: every
// worker GenerateFlow started must have exited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d: a worker leaked\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateFlowCancelDuringSearch cancels the flow partway through
// PODEM: it must return the cancellation cause and a partial result no
// larger than the full one, after every search worker has exited.
func TestGenerateFlowCancelDuringSearch(t *testing.T) {
	c, u := smallBaseline(t)
	cfg := DefaultGenConfig()
	cfg.Workers = 4
	full := mustATPG(t, c, u, cfg)

	base := runtime.NumGoroutine()
	stop := errors.New("operator stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var searches atomic.Int32
	searchHook = func(int) {
		if searches.Add(1) == 200 {
			cancel(stop)
		}
	}
	g, err := GenerateFlow(ctx, c, u, cfg, nil)
	searchHook = nil
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	waitGoroutines(t, base)
	if g == nil {
		t.Fatal("no partial result")
	}
	if g.Vectors > full.Vectors || g.Detected > full.Detected ||
		g.Untestable > full.Untestable || g.Aborted > full.Aborted {
		t.Fatalf("partial vectors/detected/untestable/aborted %d/%d/%d/%d exceed the full run's %d/%d/%d/%d",
			g.Vectors, g.Detected, g.Untestable, g.Aborted, full.Vectors, full.Detected, full.Untestable, full.Aborted)
	}
	if g.Untestable+g.Aborted == 0 || g.Untestable+g.Aborted >= full.Untestable+full.Aborted {
		t.Fatalf("partial run committed %d untestable+aborted verdicts, want some but fewer than the full run's %d",
			g.Untestable+g.Aborted, full.Untestable+full.Aborted)
	}
}

// TestGenerateFlowSearchPanic injects a panic into one PODEM search: the
// flow must return it as a *fault.PanicError naming the collapsed fault
// index, not crash, and leave no worker running.
func TestGenerateFlowSearchPanic(t *testing.T) {
	c, u := smallBaseline(t)
	cfg := DefaultGenConfig()
	cfg.Workers = 4
	base := runtime.NumGoroutine()
	var searches atomic.Int32
	var target atomic.Int64
	searchHook = func(i int) {
		if searches.Add(1) == 5 {
			target.Store(int64(i))
			panic("injected search defect")
		}
	}
	_, err := GenerateFlow(context.Background(), c, u, cfg, nil)
	searchHook = nil
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *fault.PanicError", err)
	}
	if pe.FaultIndex != int(target.Load()) || pe.Value != "injected search defect" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError{FaultIndex: %d, Value: %v, %d stack bytes}, want fault %d, the injected value and a stack",
			pe.FaultIndex, pe.Value, len(pe.Stack), target.Load())
	}
	if fault.Interrupted(err) {
		t.Fatal("a search panic must not count as a resumable interrupt")
	}
	waitGoroutines(t, base)
}
