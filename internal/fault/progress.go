package fault

import (
	"context"
	"sync"
)

// ProgressFunc observes campaign progress: it is called once per completed
// chunk with the cumulative number of finished faults (rehydrated results
// included) and the run's total fault count. Calls come from campaign
// worker goroutines one at a time, with done never decreasing; workers
// queue behind each call, so implementations must be cheap. done == total
// marks the run complete.
type ProgressFunc func(done, total int64)

// orderedProgress returns the reporter a campaign run calls as work
// completes: it adds n finished faults to the running count and passes
// the new count to fn. Workers finish chunks concurrently, so the add and
// the call share one lock; otherwise a worker could deliver a smaller
// count after another delivered a larger one. A nil fn gives a no-op.
func orderedProgress(fn ProgressFunc, total int64) func(n int64) {
	if fn == nil {
		return func(int64) {}
	}
	var mu sync.Mutex
	var done int64
	return func(n int64) {
		mu.Lock()
		defer mu.Unlock()
		done += n
		fn(done, total)
	}
}

type progressKey struct{}

// WithProgress attaches a progress hook to ctx. Every campaign run under
// this context reports into the hook, which is how long multi-campaign
// flows (ATPG generation, dictionary builds, isolation sweeps, fab fleets)
// expose live percent-complete without widening any flow signature: the
// CLIs attach a stderr printer, the serving daemon attaches the job's
// event publisher. A nil fn returns ctx unchanged.
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext returns the hook attached by WithProgress, or nil.
// Non-campaign flows (the uarch IPC studies) use it to report their own
// job-granular progress through the same channel.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}
