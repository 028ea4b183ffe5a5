package fault

import "context"

// ProgressFunc observes campaign progress: it is called once per completed
// chunk with the cumulative number of finished faults (rehydrated results
// included) and the run's total fault count. Calls come from campaign
// worker goroutines, possibly concurrently — implementations must be
// cheap and goroutine-safe. done == total marks the run complete.
type ProgressFunc func(done, total int64)

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
