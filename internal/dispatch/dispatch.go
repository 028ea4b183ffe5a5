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
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
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

// requestTimeout bounds one submit or result-fetch round trip.
const requestTimeout = 10 * time.Second

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
	url  string
	down atomic.Bool
}

// Pool dispatches shards to rescued workers. Create with NewPool, attach
// to campaigns via Plan, and Close when the flow is done.
type Pool struct {
	cfg     Config
	client  *http.Client
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
		cfg:    cfg,
		client: &http.Client{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		stop:   make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		p.workers = append(p.workers, &worker{url: strings.TrimSuffix(u, "/")})
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
		var busy errBusy
		if !errors.As(err, &busy) {
			w.down.Store(true)
			p.logf("worker %s suspected down after %s: %v", w.url, what, err)
		}
		if attempt >= p.cfg.RetryBudget {
			return nil, fmt.Errorf("dispatch: %s exhausted its retry budget (%d attempts): %w",
				what, attempt+1, err)
		}
		p.retries.Add(1)
		wait := p.backoff(attempt, busy.retryAfter)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// attempt drives one job attempt on one worker: submit, watch the event
// stream under the heartbeat watchdog, fetch the result, check it.
func (p *Pool) attempt(ctx context.Context, w *worker, body []byte, kind string, check func([]byte) error) ([]byte, error) {
	id, err := p.submit(ctx, w, body)
	if err != nil {
		return nil, err
	}
	state, err := p.watch(ctx, w, id)
	if err != nil {
		// The worker may still be computing (hung, or just slower than the
		// heartbeat): cancel the job best-effort so a late completion burns
		// no further cycles, and never fetch its result — the reassigned
		// twin's result is the only one read.
		p.cancelJob(w, id)
		return nil, err
	}
	if state != "succeeded" {
		return nil, fmt.Errorf("worker %s: %s job %s ended %s", w.url, kind, id, state)
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.url+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("result from %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result from %s: HTTP %d", w.url, resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err == nil && check != nil {
		err = check(out)
	}
	if err != nil {
		return nil, fmt.Errorf("result from %s: %w", w.url, err)
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
func (p *Pool) backoff(attempt int, retryAfter time.Duration) time.Duration {
	wait := p.cfg.BackoffBase << attempt
	if wait > p.cfg.BackoffCap || wait <= 0 {
		wait = p.cfg.BackoffCap
	}
	if retryAfter > wait {
		wait = retryAfter
	}
	p.rngMu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(wait)/2 + 1))
	p.rngMu.Unlock()
	return wait + jitter
}

// errBusy marks a 429: the worker is healthy but saturated, so the retry
// neither marks it down nor skips it — it just waits.
type errBusy struct {
	retryAfter time.Duration
}

func (e errBusy) Error() string {
	return fmt.Sprintf("worker queue full (retry after %s)", e.retryAfter)
}

func (p *Pool) submit(ctx context.Context, w *worker, body []byte) (string, error) {
	sctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, w.url+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if p.cfg.Tenant != "" {
		req.Header.Set("X-Rescue-Client", p.cfg.Tenant)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("submit to %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var sn struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil || sn.ID == "" {
			return "", fmt.Errorf("submit to %s: bad response: %v", w.url, err)
		}
		return sn.ID, nil
	case http.StatusTooManyRequests:
		after := time.Duration(0)
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		return "", errBusy{retryAfter: after}
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("submit to %s: HTTP %d: %s", w.url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
}

// watch follows the job's NDJSON event stream until its done event and
// returns the terminal state. Every streamed line is a heartbeat; silence
// beyond the configured window cancels the stream and fails the attempt —
// the hung-worker detector.
func (p *Pool) watch(ctx context.Context, w *worker, id string) (string, error) {
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, w.url+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("events from %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events from %s: HTTP %d", w.url, resp.StatusCode)
	}

	errHeartbeat := fmt.Errorf("worker %s: no event in %s on job %s (hung?)", w.url, p.cfg.Heartbeat, id)
	beat := make(chan struct{}, 1)
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		t := time.NewTimer(p.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-beat:
				if !t.Stop() {
					<-t.C
				}
				t.Reset(p.cfg.Heartbeat)
			case <-t.C:
				cancel(errHeartbeat)
				return
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	state := ""
	for sc.Scan() {
		select {
		case beat <- struct{}{}:
		default:
		}
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "done" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		if cause := context.Cause(wctx); cause != nil && cause != context.Canceled {
			return "", cause
		}
		return "", fmt.Errorf("events from %s: %w", w.url, err)
	}
	if state == "" {
		return "", fmt.Errorf("worker %s: event stream for %s ended without a done event", w.url, id)
	}
	return state, nil
}

// cancelJob best-effort DELETEs an abandoned job so a hung-but-alive
// worker stops burning cores on a shard nobody will read. A 409 means the
// job finished in the race window — fine either way; its result stays
// unread.
func (p *Pool) cancelJob(w *worker, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.url+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := p.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
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
				up := p.healthy(w)
				was := w.down.Load()
				w.down.Store(!up)
				if was && up {
					p.logf("worker %s back up", w.url)
				}
			}
		}
	}
}

func (p *Pool) healthy(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
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
			p.logf("chaos: killing worker %d (%s)", v, p.workers[v].url)
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
