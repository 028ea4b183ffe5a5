package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rescue/internal/serve"
)

// Options parameterize a firing run.
type Options struct {
	// BaseURL is the daemon root, e.g. http://127.0.0.1:8321.
	BaseURL string
	// Prewarm submits each profile's canonical spec once and waits for it
	// before the clock starts, so the warm share of the schedule measures
	// cache serving rather than first-build cost.
	Prewarm bool
	// MaxRetries bounds 429 resubmissions per request. 0 = 8.
	MaxRetries int
	// RetryCap clamps how long a Retry-After is honored, keeping short
	// benchmark runs from stalling on a 60s estimate. 0 = 5s.
	RetryCap time.Duration
	// SampleEvery is the /metrics sampling period for queue depth and
	// slot occupancy. 0 = 250ms.
	SampleEvery time.Duration
	// RequestTimeout bounds one request's full lifecycle. 0 = 5m.
	RequestTimeout time.Duration
	// SlowReaders marks the first N requests (by seq) as slow event-stream
	// consumers: instead of holding the stream open, they poll the job
	// snapshot every SlowReadDelay and replay the event log only after the
	// job finishes — the consumer that fell behind and came back. Chatty
	// jobs overflow a small -event-log-cap in the meantime, so the replay
	// opens with a {"type":"dropped"} marker, which the run counts.
	SlowReaders int
	// SlowReadDelay is the slow readers' poll interval. 0 = 50ms.
	SlowReadDelay time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() error {
	if o.BaseURL == "" {
		return fmt.Errorf("loadgen: need a base URL")
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 8
	}
	if o.RetryCap == 0 {
		o.RetryCap = 5 * time.Second
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 250 * time.Millisecond
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 5 * time.Minute
	}
	if o.SlowReaders < 0 {
		return fmt.Errorf("loadgen: slow readers must be >= 0, got %d", o.SlowReaders)
	}
	if o.SlowReadDelay == 0 {
		o.SlowReadDelay = 50 * time.Millisecond
	}
	return nil
}

// RequestResult records one request's observed lifecycle.
type RequestResult struct {
	Seq    int    `json:"seq"`
	Client int    `json:"client"`
	Kind   string `json:"kind"`
	Warm   bool   `json:"warm"`
	// SubmitMS is scheduled-fire to 202, including any 429 backoff.
	SubmitMS float64 `json:"submitMS"`
	// TotalMS is scheduled-fire to the job's terminal state.
	TotalMS float64 `json:"totalMS"`
	// Retries counts 429-backoff resubmissions.
	Retries int `json:"retries"`
	// Tenant is the identity the request fired under ("" = untagged).
	Tenant string `json:"tenant,omitempty"`
	// Dropped counts events the server's bounded buffers evicted from this
	// request's stream (the sum of dropped-marker counts it observed).
	Dropped int `json:"dropped,omitempty"`
	// State is the job's terminal state, or "rejected" when retries ran
	// out, or "error" on a transport/protocol failure (Err has detail).
	State string `json:"state"`
	Err   string `json:"err,omitempty"`
}

// OK reports whether the request completed as a client would want.
func (r RequestResult) OK() bool { return r.State == "succeeded" }

// RunStats is everything a firing run observed.
type RunStats struct {
	Results []RequestResult
	// Wall is schedule start to last completion.
	Wall time.Duration
	// Queue/slot occupancy sampled from /metrics during the run.
	QueueDepthMax  int64
	QueueDepthMean float64
	SlotsBusyMean  float64
	Slots          int64
	Samples        int
	// Artifact-cache traffic over the run (deltas; prewarm excluded).
	CacheHits, CacheMisses int64
	// PrewarmMS is how long priming the canonical specs took.
	PrewarmMS float64
	// DropMarkers counts request streams that observed at least one
	// dropped marker; DroppedEvents sums the evicted-event counts.
	DropMarkers   int
	DroppedEvents int
}

// Run replays a schedule against a live daemon and records what happened.
// The generator is open-loop: requests fire at their scheduled offsets
// whether or not earlier ones completed — that is what pushes the queue.
func Run(ctx context.Context, sch *Schedule, opts Options) (*RunStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	client := &serve.Client{Base: opts.BaseURL}
	st := &RunStats{Results: make([]RequestResult, len(sch.Requests))}

	if opts.Prewarm {
		t0 := time.Now()
		for _, kind := range canonicalKinds(sch) {
			req := Request{Kind: kind, Body: sch.Canonical[kind], Warm: true}
			rr := fire(ctx, client, opts, req, sch.jitterSeed(req))
			if !rr.OK() {
				return nil, fmt.Errorf("loadgen: prewarm %s: state %s %s", kind, rr.State, rr.Err)
			}
		}
		st.PrewarmMS = float64(time.Since(t0)) / float64(time.Millisecond)
		logf(opts, "prewarmed %d canonical specs in %.0fms", len(sch.Canonical), st.PrewarmMS)
	}

	hits0, misses0, err := cacheCounts(ctx, client)
	if err != nil {
		return nil, fmt.Errorf("loadgen: baseline /metrics scrape: %w", err)
	}

	// Gauge sampler: queue depth and busy slots over the run.
	samplerCtx, stopSampler := context.WithCancel(ctx)
	defer stopSampler()
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(opts.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-samplerCtx.Done():
				return
			case <-tick.C:
				m, err := client.Metrics(samplerCtx)
				if err != nil {
					continue
				}
				// The report keeps integer gauges: truncate.
				depth := int64(m["queue_depth"])
				st.QueueDepthMax = max(st.QueueDepthMax, depth)
				st.QueueDepthMean += float64(depth)
				st.SlotsBusyMean += float64(int64(m["jobs_running"]))
				st.Slots = int64(m["scheduler_slots"])
				st.Samples++
			}
		}
	}()

	// Open-loop firing.
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sch.Requests {
		req := sch.Requests[i]
		if d := time.Until(start.Add(req.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			st.Results[i] = fire(ctx, client, opts, req, sch.jitterSeed(req))
		}(i, req)
	}
	wg.Wait()
	st.Wall = time.Since(start)
	for _, rr := range st.Results {
		if rr.Dropped > 0 {
			st.DropMarkers++
			st.DroppedEvents += rr.Dropped
		}
	}
	stopSampler()
	<-samplerDone
	if st.Samples > 0 {
		st.QueueDepthMean /= float64(st.Samples)
		st.SlotsBusyMean /= float64(st.Samples)
	}

	hits1, misses1, err := cacheCounts(ctx, client)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final /metrics scrape: %w", err)
	}
	st.CacheHits = hits1 - hits0
	st.CacheMisses = misses1 - misses0
	logf(opts, "fired %d requests in %s (cache +%d hits / +%d misses)",
		len(sch.Requests), st.Wall.Round(time.Millisecond), st.CacheHits, st.CacheMisses)
	return st, nil
}

// canonicalKinds yields the canonical kinds sorted by name so prewarm
// order (and thus which spec pays for shared artifacts) is deterministic.
func canonicalKinds(sch *Schedule) []string {
	kinds := make([]string, 0, len(sch.Canonical))
	for k := range sch.Canonical {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// jitterSeed derives the deterministic backoff-jitter seed for one
// request: the owning client's arrival seed offset by the request's
// sequence number, so every request jitters differently but identically
// across runs of the same schedule. Hand-built schedules without Seeds
// fall back to the sequence number alone.
func (s *Schedule) jitterSeed(req Request) int64 {
	if req.Client < len(s.Seeds) {
		return s.Seeds[req.Client] + int64(req.Seq)
	}
	return int64(req.Seq)
}

// fire drives one request's lifecycle: submit (with 429 backoff honoring
// Retry-After plus seeded jitter), then stream events until the job goes
// terminal.
func fire(ctx context.Context, client *serve.Client, opts Options, req Request, jitterSeed int64) RequestResult {
	rr := RequestResult{Seq: req.Seq, Client: req.Client, Kind: req.Kind, Warm: req.Warm, Tenant: req.Tenant}
	ctx, cancel := context.WithTimeout(ctx, opts.RequestTimeout)
	defer cancel()
	t0 := time.Now()

	var jrng *rand.Rand // lazily seeded; most requests never hit a 429
	var id string
	for attempt := 0; ; attempt++ {
		var err error
		if id, err = client.Submit(ctx, req.Body, req.Tenant, req.Class); err == nil {
			break
		}
		var busy *serve.BusyError
		if !errors.As(err, &busy) {
			return rr.fail("error", err)
		}
		if attempt >= opts.MaxRetries {
			rr.SubmitMS = sinceMS(t0)
			rr.TotalMS = rr.SubmitMS
			rr.State = "rejected"
			rr.Err = fmt.Sprintf("still 429 after %d retries", attempt)
			return rr
		}
		rr.Retries++
		if jrng == nil {
			jrng = rand.New(rand.NewSource(jitterSeed))
		}
		wait := backoff(busy.RetryAfter, opts.RetryCap)
		// Seeded jitter in [0, wait/2]: a thundering herd that got the same
		// Retry-After estimate spreads out instead of resubmitting in
		// lockstep, and the spread replays identically run to run.
		wait += time.Duration(jrng.Int63n(int64(wait)/2 + 1))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return rr.fail("error", ctx.Err())
		}
	}
	rr.SubmitMS = sinceMS(t0)

	countDrops := func(ev serve.Event) {
		if ev.Type == "dropped" {
			rr.Dropped += ev.Count
		}
	}
	var state serve.State
	var err error
	if req.Seq > 0 && req.Seq <= opts.SlowReaders {
		state, err = lateReplay(ctx, client, id, opts.SlowReadDelay, countDrops)
	} else {
		state, err = client.Follow(ctx, id, countDrops)
	}
	rr.TotalMS = sinceMS(t0)
	if err != nil {
		return rr.fail("error", err)
	}
	rr.State = string(state)
	return rr
}

// lateReplay is the slow-consumer path: poll the snapshot until the job
// is terminal, then read the retained event log in one pass, so fn sees
// what the server's bounded buffer evicted in the meantime as a dropped
// marker.
func lateReplay(ctx context.Context, client *serve.Client, id string, every time.Duration, fn func(serve.Event)) (serve.State, error) {
	for {
		sn, err := client.Snapshot(ctx, id)
		if err != nil {
			return "", err
		}
		if sn.State.Done() {
			return client.Follow(ctx, id, fn)
		}
		select {
		case <-time.After(every):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func (r RequestResult) fail(state string, err error) RequestResult {
	r.State = state
	r.Err = err.Error()
	return r
}

func sinceMS(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// backoff turns a 429's Retry-After hint into a wait: the server's
// estimate clamped to [100ms, cap]. An absent or malformed header (a 0
// hint) waits the 100ms floor.
func backoff(retryAfter, cap time.Duration) time.Duration {
	return max(min(retryAfter, cap), 100*time.Millisecond)
}

// cacheCounts reads the artifact-cache hit and miss counters.
func cacheCounts(ctx context.Context, client *serve.Client) (hits, misses int64, err error) {
	m, err := client.Metrics(ctx)
	return int64(m["artifact_cache_hits_total"]), int64(m["artifact_cache_misses_total"]), err
}

func logf(opts Options, format string, args ...any) {
	if opts.Logf != nil {
		opts.Logf(format, args...)
	}
}
