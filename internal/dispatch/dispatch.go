// Package dispatch fans campaign shards out to a pool of rescued workers
// over HTTP and survives the pool misbehaving: dead workers are detected
// by connection failure, health polling, and event-stream heartbeat
// timeouts; their shards are reassigned to survivors under a retry budget
// with exponential backoff and seeded jitter; and when the pool is
// exhausted the shard is handed back to the campaign's local worker pool —
// the coordinator degrades to a single-node run rather than failing.
//
// Correctness under all of this rests on content addressing, not on
// bookkeeping: every shard job carries the campaign's CampaignKey, every
// worker re-derives that key from its own execution of the flow, and every
// result is digest-sealed and verified before merging (internal/fault's
// shard machinery). Retried or duplicated shards therefore merge
// byte-identically, and a late result from an abandoned worker is simply
// never read — its job is cancelled best-effort and its output discarded.
//
// The pool plugs into a campaign as a fault.ShardPlan via Plan(flow); the
// chaos knobs (ChaosConfig) kill a seeded random subset of workers after a
// configurable number of completed shards, which is how CI proves the
// failure story end to end.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/fault"
	"rescue/internal/serve"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the pool: one rescued base URL each (http://host:port).
	// Required, at least one.
	Workers []string
	// Shards is how many pieces each eligible campaign splits into.
	// 0 = len(Workers).
	Shards int
	// MinFaults gates dispatch: smaller campaigns run locally. 0 = 64.
	MinFaults int
	// RetryBudget is how many times one job (shard or sweep point) may be
	// re-dispatched after its first attempt fails. 0 = 2*len(Workers).
	RetryBudget int
	// BackoffBase/BackoffCap bound the exponential retry backoff.
	// 0 = 100ms / 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Heartbeat is the longest silence tolerated on a job's event stream
	// before the worker is declared hung, the job cancelled, and the job
	// reassigned. 0 = 30s.
	Heartbeat time.Duration
	// HealthEvery is the /healthz polling period that revives recovered
	// workers and retires unreachable ones. 0 = 500ms.
	HealthEvery time.Duration
	// Seed drives retry jitter and the chaos victim choice. Same seed,
	// same decisions.
	Seed int64
	// Tenant, when set, tags every shard job the coordinator submits
	// (X-Rescue-Client), so worker-side per-tenant metrics attribute
	// shard load to the originating campaign's tenant and workers
	// schedule it under that tenant's weight. Shard bodies are NOT
	// rewritten — the artifact/checkpoint identity is tenant-blind.
	Tenant string
	// Logf, when set, receives one line per dispatch event.
	Logf func(format string, args ...any)
	// Chaos, when armed, kills workers mid-campaign (see ChaosConfig).
	Chaos ChaosConfig
}

// ChaosConfig is the coordinator-side fault injector: after AfterShards
// shards have completed remotely, Kill is invoked for KillWorkers distinct
// workers chosen by the pool's seeded RNG. The campaign must still merge
// byte-identically — that is the contract CI pins.
type ChaosConfig struct {
	// KillWorkers is how many workers to kill. 0 disarms chaos.
	KillWorkers int
	// AfterShards is how many remote shard completions to wait for before
	// killing. 0 = kill after the first completion.
	AfterShards int
	// Kill terminates worker i (an index into Config.Workers). Required
	// when KillWorkers > 0; typically SIGKILLs a spawned child process.
	Kill func(worker int) error
}

// requestTimeout bounds one submit or result-fetch round trip;
// cancelTimeout bounds the best-effort cancel of an abandoned job.
const (
	requestTimeout = 10 * time.Second
	cancelTimeout  = 2 * time.Second
)

func (c *Config) setDefaults() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("dispatch: need at least one worker URL")
	}
	if c.Shards == 0 {
		c.Shards = len(c.Workers)
	}
	if c.MinFaults == 0 {
		c.MinFaults = 64
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2 * len(c.Workers)
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 2 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 30 * time.Second
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 500 * time.Millisecond
	}
	if c.Chaos.KillWorkers > 0 && c.Chaos.Kill == nil {
		return fmt.Errorf("dispatch: chaos armed without a kill function")
	}
	return nil
}

// Stats is the pool's observability record.
type Stats struct {
	// Completed counts jobs (shards or sweep points) computed remotely and
	// accepted.
	Completed int64
	// Retries counts re-dispatch attempts after a failed one.
	Retries int64
	// Fallbacks counts shards handed back to local execution.
	Fallbacks int64
	// Killed counts workers the chaos injector terminated.
	Killed int64
}

// worker is one pool member. down is advisory: the health loop and
// per-dispatch failures flip it, /healthz success revives it.
type worker struct {
	c    serve.Client
	down atomic.Bool
}

// Pool dispatches shards to rescued workers. Create with NewPool, attach
// to campaigns via Plan, and Close when the flow is done.
type Pool struct {
	cfg     Config
	workers []*worker

	rngMu sync.Mutex
	rng   *rand.Rand

	next atomic.Int64 // round-robin cursor

	completed atomic.Int64
	retries   atomic.Int64
	fallbacks atomic.Int64
	killed    atomic.Int64
	chaosOnce sync.Once

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPool validates cfg and starts the health loop.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		stop: make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		p.workers = append(p.workers, &worker{c: serve.Client{Base: u}})
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p, nil
}

// Close stops the health loop. In-flight ExecJob calls are unaffected.
func (p *Pool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Completed: p.completed.Load(),
		Retries:   p.retries.Load(),
		Fallbacks: p.fallbacks.Load(),
		Killed:    p.killed.Load(),
	}
}

// Plan adapts the pool to a campaign of the given flow — the job spec
// every worker re-executes to reach the target campaign, i.e. the
// coordinator's own kind and params. Attach the returned plan with
// fault.WithShardPlan and every eligible campaign under that context
// dispatches through this pool. Each shard is an ordinary ExecJob whose
// result must decode to the requested window of the requested campaign and
// pass its digest check; a rejected result is retried like any other
// failed attempt, and a shard the pool gives up on is simulated locally.
func (p *Pool) Plan(flow serve.Spec) (*fault.ShardPlan, error) {
	if flow.Kind == "shard" {
		return nil, fmt.Errorf("dispatch: shard flows do not nest")
	}
	exec := func(ctx context.Context, key fault.CampaignKey, lo, hi int) (*fault.ShardResult, error) {
		spec, err := serve.ShardSpec(flow, key, lo, hi)
		if err != nil {
			return nil, err
		}
		var res fault.ShardResult
		// The campaign re-verifies before merging; verifying here too lets
		// the retry loop (not the fallback path) recover from a corrupt
		// transfer.
		_, err = p.ExecJob(ctx, spec, func(b []byte) error {
			res = fault.ShardResult{}
			if err := json.Unmarshal(b, &res); err != nil {
				return err
			}
			if res.Key != key || res.Lo != lo || res.Hi != hi {
				return fmt.Errorf("wrong shard (got key %+v [%d,%d))", res.Key, res.Lo, res.Hi)
			}
			return res.Verify()
		})
		if err != nil {
			return nil, err
		}
		return &res, nil
	}
	return &fault.ShardPlan{
		Exec:      exec,
		Shards:    p.cfg.Shards,
		MinFaults: p.cfg.MinFaults,
		OnFallback: func(key fault.CampaignKey, lo, hi int, err error) {
			p.fallbacks.Add(1)
			p.logf("shard [%d,%d): local fallback: %v", lo, hi, err)
		},
	}, nil
}

// ExecJob submits a job spec to the pool and returns its result bytes,
// retrying across the pool under the budget: pick a live worker, submit,
// watch the event stream under the heartbeat watchdog, fetch the result,
// and run check (when non-nil) on it. A 429 waits out the worker's
// Retry-After without marking it down; any other failure — connection
// refused, mid-stream EOF, heartbeat timeout, job failure, a result check
// rejects — marks the worker down (the health loop revives it if /healthz
// answers) and moves the job to a survivor after a backoff. The returned
// error means the pool gave up; the caller then runs the work locally.
func (p *Pool) ExecJob(ctx context.Context, spec serve.Spec, check func([]byte) error) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	what := spec.Kind + " job"
	if spec.Kind == "shard" {
		var win struct{ Lo, Hi int }
		if json.Unmarshal(spec.Params, &win) == nil {
			what = fmt.Sprintf("shard [%d,%d)", win.Lo, win.Hi)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		w := p.pick()
		if w == nil {
			return nil, fmt.Errorf("dispatch: no live workers for %s (last error: %v)", what, lastErr)
		}
		out, err := p.attempt(ctx, w, body, spec.Kind, check)
		if err == nil {
			n := p.completed.Add(1)
			p.maybeChaos(n)
			return out, nil
		}
		lastErr = err
		// A 429 means the worker is healthy but saturated: wait out its
		// Retry-After without marking it down.
		var busy *serve.BusyError
		floor := time.Duration(0)
		if errors.As(err, &busy) {
			floor = busy.RetryAfter
		} else {
			w.down.Store(true)
			p.logf("worker %s suspected down after %s: %v", w.c.Base, what, err)
		}
		if attempt >= p.cfg.RetryBudget {
			return nil, fmt.Errorf("dispatch: %s exhausted its retry budget (%d attempts): %w",
				what, attempt+1, err)
		}
		p.retries.Add(1)
		select {
		case <-time.After(p.backoff(attempt, floor)):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// attempt drives one job attempt on one worker: submit, watch the event
// stream under the heartbeat watchdog, fetch the result, check it.
func (p *Pool) attempt(ctx context.Context, w *worker, body []byte, kind string, check func([]byte) error) ([]byte, error) {
	sctx, cancel := context.WithTimeout(ctx, requestTimeout)
	id, err := w.c.Submit(sctx, body, p.cfg.Tenant, "")
	cancel()
	if err != nil {
		return nil, err
	}
	state, err := p.watch(ctx, w, id)
	if err != nil {
		// The worker may still be computing (hung, or just slower than the
		// heartbeat): cancel the job best-effort so a late completion burns
		// no further cycles, and never fetch its result — the reassigned
		// twin's result is the only one read. A 409 means it finished in
		// the race window; its result stays unread either way.
		cctx, cancel := context.WithTimeout(context.Background(), cancelTimeout)
		w.c.Cancel(cctx, id)
		cancel()
		return nil, err
	}
	if state != serve.StateSucceeded {
		return nil, fmt.Errorf("worker %s: %s job %s ended %s", w.c.Base, kind, id, state)
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	out, err := w.c.Result(rctx, id)
	if err == nil && check != nil {
		err = check(out)
	}
	if err != nil {
		return nil, fmt.Errorf("result from %s: %w", w.c.Base, err)
	}
	return out, nil
}

// pick returns the next live worker round-robin, or nil when every worker
// is down.
func (p *Pool) pick() *worker {
	n := len(p.workers)
	start := int(p.next.Add(1))
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		if !w.down.Load() {
			return w
		}
	}
	return nil
}

// backoff is exponential from the base, capped, plus seeded jitter in
// [0, wait/2] so synchronized retries spread out. A server-provided
// Retry-After raises the floor.
func (p *Pool) backoff(attempt int, floor time.Duration) time.Duration {
	wait := p.cfg.BackoffBase << attempt
	if wait > p.cfg.BackoffCap || wait <= 0 {
		wait = p.cfg.BackoffCap
	}
	wait = max(wait, floor)
	p.rngMu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(wait)/2 + 1))
	p.rngMu.Unlock()
	return wait + jitter
}

// watch follows the job's event stream until it ends and returns the done
// event's state. Every streamed line, keepalives included, is a
// heartbeat that resets the watchdog; silence beyond the configured
// window cancels the stream and fails the attempt — the hung-worker
// detector.
func (p *Pool) watch(ctx context.Context, w *worker, id string) (serve.State, error) {
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	hung := fmt.Errorf("worker %s: no event in %s on job %s (hung?)", w.c.Base, p.cfg.Heartbeat, id)
	watchdog := time.AfterFunc(p.cfg.Heartbeat, func() { cancel(hung) })
	defer watchdog.Stop()
	state, err := w.c.Follow(wctx, id, func(serve.Event) { watchdog.Reset(p.cfg.Heartbeat) })
	if err != nil {
		if cause := context.Cause(wctx); cause != nil && cause != context.Canceled {
			return "", cause
		}
		return "", fmt.Errorf("events from %s: %w", w.c.Base, err)
	}
	return state, nil
}

// healthLoop polls every worker's /healthz: a 200 revives a suspected
// worker, anything else retires it until it answers again.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			for _, w := range p.workers {
				hctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthEvery)
				up := w.c.Healthy(hctx)
				cancel()
				was := w.down.Load()
				w.down.Store(!up)
				if was && up {
					p.logf("worker %s back up", w.c.Base)
				}
			}
		}
	}
}

// maybeChaos fires the chaos injector once the completed-shard count
// crosses the configured threshold: kill KillWorkers distinct workers,
// chosen by the pool's seeded RNG.
func (p *Pool) maybeChaos(completed int64) {
	c := p.cfg.Chaos
	if c.KillWorkers <= 0 {
		return
	}
	after := int64(c.AfterShards)
	if after < 1 {
		after = 1
	}
	if completed < after {
		return
	}
	p.chaosOnce.Do(func() {
		n := len(p.workers)
		k := c.KillWorkers
		if k > n {
			k = n
		}
		p.rngMu.Lock()
		victims := p.rng.Perm(n)[:k]
		p.rngMu.Unlock()
		for _, v := range victims {
			p.logf("chaos: killing worker %d (%s)", v, p.workers[v].c.Base)
			if err := c.Kill(v); err != nil {
				p.logf("chaos: kill worker %d: %v", v, err)
				continue
			}
			p.killed.Add(1)
		}
	})
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}
