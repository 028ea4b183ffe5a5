// Package serve is the rescued batch daemon: the repo's long-running flows
// (ATPG/Table 3, fault-dictionary builds, isolation campaigns, YAT and IPC
// studies, Monte Carlo fab fleets) exposed as HTTP jobs over a bounded
// queue, with live NDJSON event streams, per-job cancellation, and a
// graceful drain that checkpoints running campaigns so an identical
// resubmission resumes them bit-identically.
//
// Every job renders through the same internal/flows runners the CLIs use,
// against a shared content-addressed artifact store — so a warm job's
// report is byte-identical to a cold one, and both are byte-identical to
// the corresponding command's output (what results/*.txt pin).
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/obs"
	"rescue/internal/sched"
)

// Cancellation causes, distinguishable via context.Cause so the runner can
// map them to job states.
var (
	// ErrCanceled is the cause when a client DELETEs a job.
	ErrCanceled = errors.New("job canceled by client")
	// ErrDraining is the cause when the server is shutting down; running
	// campaigns flush their checkpoint journals before the job finishes.
	ErrDraining = errors.New("server draining")
)

// Config parameterizes a Server.
type Config struct {
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429. 0 = 64.
	QueueCap int
	// Slots is the number of jobs running concurrently. 0 = 1: flows
	// parallelize internally, so one slot already saturates the cores.
	Slots int
	// Workers is the per-job default campaign concurrency (0 = all cores);
	// job params may override it.
	Workers int
	// CheckpointDir, when set, gives every checkpointable job a campaign
	// journal named by its spec digest: a drained job's journal is resumed
	// by the next identical submission. "" disables checkpointing.
	CheckpointDir string
	// Reg receives the server's metrics. nil = a private registry.
	Reg *obs.Registry
	// Kinds maps kind names to runners. nil = Kinds() (the built-in set).
	Kinds map[string]Runner
	// Logf, when set, receives one line per job transition.
	Logf func(format string, args ...any)

	// TenantWeights gives per-tenant DRR weights for slot assignment;
	// unlisted tenants weigh 1. nil = every tenant equal.
	TenantWeights map[string]int
	// TenantQueueCap bounds one tenant's queued jobs. 0 = QueueCap (a
	// lone tenant keeps the full queue, so single-tenant behavior is
	// unchanged).
	TenantQueueCap int
	// MaxInflightPerTenant bounds one tenant's running jobs. 0 = no
	// per-tenant limit.
	MaxInflightPerTenant int
	// DisableFairness reverts admission to the single global FIFO of
	// earlier releases: no per-tenant caps, weights, in-flight limits,
	// or classes. Kept for A/B fairness measurement; the zero value
	// (fairness on) is the default.
	DisableFairness bool
	// EventLogCap bounds each job's retained event log; older events are
	// evicted and streamed consumers that lagged past them get a
	// {"type":"dropped","count":N} marker. <= 0 = 4096, ample for every
	// built-in flow's percent-throttled progress.
	EventLogCap int
}

// DefaultEventLogCap is the per-job event-log bound when EventLogCap is <= 0.
const DefaultEventLogCap = 4096

// maxStreamLag bounds how far one NDJSON consumer may fall behind the
// live log before the stream skips ahead with a dropped marker instead
// of replaying the full backlog to a reader that cannot keep up.
const maxStreamLag = 1024

// MaxFinishedJobs bounds how many terminal jobs the server keeps, 16× the
// default queue cap. Beyond it the job that finished longest ago is
// evicted with its report and event log; its ID then answers 410 Gone.
// Queued and running jobs are never evicted.
const MaxFinishedJobs = 1024

// Server owns the queue, the scheduler, and the artifact store.
type Server struct {
	cfg   Config
	kinds map[string]Runner
	store *flows.Store
	reg   *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*Job         // retained jobs
	order    []string                // submission order, for listing; may name evicted jobs
	finished [MaxFinishedJobs]string // ring of finished IDs; once full, nextFin is the oldest
	nextFin  int
	nextID   int
	draining bool

	sched *sched.Scheduler
	wg    sync.WaitGroup // scheduler slots
	jobWG sync.WaitGroup // running jobs

	tenantMu sync.Mutex
	tenants  map[string]*tenantMetrics

	mQueued      *obs.Counter
	mRejected    *obs.Counter
	mSucceeded   *obs.Counter
	mFailed      *obs.Counter
	mCanceled    *obs.Counter
	mInterrupted *obs.Counter
	mEvicted     *obs.Counter
	gQueueDepth  *obs.Gauge
	gRunning     *obs.Gauge
	hJobSeconds  *obs.Histogram
}

// tenantMetrics is one tenant's lazily-created slice of the registry:
// counters for admissions and sheds, a queue-wait histogram (quantiles
// land in /metrics automatically), and gauge funcs reading the
// scheduler's live per-tenant state.
type tenantMetrics struct {
	admitted *obs.Counter
	shed     *obs.Counter
	wait     *obs.Histogram
}

// tenantMetrics returns (creating on first use) the metric handles for
// a tenant. Metric names embed the sanitized tenant name:
// tenant_<name>_admitted_total, _shed_total, _queue_depth, _running,
// _wait_seconds.
func (s *Server) tenantMetrics(tenant string) *tenantMetrics {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if tm, ok := s.tenants[tenant]; ok {
		return tm
	}
	p := "tenant_" + obs.SanitizeName(tenant) + "_"
	tm := &tenantMetrics{
		admitted: s.reg.Counter(p + "admitted_total"),
		shed:     s.reg.Counter(p + "shed_total"),
		wait:     s.reg.Histogram(p + "wait_seconds"),
	}
	name := tenant
	s.reg.RegisterFunc(p+"queue_depth", func() float64 {
		sn, _ := s.sched.Tenant(name)
		return float64(sn.Queued)
	})
	s.reg.RegisterFunc(p+"running", func() float64 {
		sn, _ := s.sched.Tenant(name)
		return float64(sn.Inflight)
	})
	s.reg.RegisterFunc(p+"weight", func() float64 {
		sn, _ := s.sched.Tenant(name)
		return float64(sn.Weight)
	})
	s.tenants[tenant] = tm
	return tm
}

// New builds a Server and starts its scheduler slots.
func New(cfg Config) *Server {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.Slots == 0 {
		cfg.Slots = 1
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = Kinds()
	}
	if cfg.EventLogCap <= 0 {
		cfg.EventLogCap = DefaultEventLogCap
	}
	s := &Server{
		cfg:     cfg,
		kinds:   kinds,
		store:   flows.NewStore(),
		reg:     cfg.Reg,
		jobs:    map[string]*Job{},
		tenants: map[string]*tenantMetrics{},

		mQueued:      cfg.Reg.Counter("jobs_queued_total"),
		mRejected:    cfg.Reg.Counter("jobs_rejected_total"),
		mSucceeded:   cfg.Reg.Counter("jobs_succeeded_total"),
		mFailed:      cfg.Reg.Counter("jobs_failed_total"),
		mCanceled:    cfg.Reg.Counter("jobs_canceled_total"),
		mInterrupted: cfg.Reg.Counter("jobs_interrupted_total"),
		mEvicted:     cfg.Reg.Counter("jobs_evicted_total"),
		gQueueDepth:  cfg.Reg.Gauge("queue_depth"),
		gRunning:     cfg.Reg.Gauge("jobs_running"),
		hJobSeconds:  cfg.Reg.Histogram("job_seconds"),
	}
	s.sched = sched.New(sched.Config{
		Slots:       cfg.Slots,
		GlobalCap:   cfg.QueueCap,
		TenantCap:   cfg.TenantQueueCap,
		MaxInflight: cfg.MaxInflightPerTenant,
		Weights:     cfg.TenantWeights,
		Disable:     cfg.DisableFairness,
		JobSeconds: func() float64 {
			count, sum, _, _ := s.hJobSeconds.Snapshot()
			if count == 0 {
				return 0 // scheduler falls back to its 1s prior
			}
			return sum / float64(count)
		},
		OnDequeue: func(tenant string, _ sched.Class, wait time.Duration) {
			s.tenantMetrics(tenant).wait.Observe(wait.Seconds())
		},
	})
	cfg.Reg.RegisterFunc("queue_cap", func() float64 { return float64(s.cfg.QueueCap) })
	cfg.Reg.RegisterFunc("scheduler_slots", func() float64 { return float64(s.cfg.Slots) })
	cfg.Reg.RegisterFunc("jobs_retained", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.jobs))
	})
	cfg.Reg.RegisterFunc("artifact_cache_hits_total", func() float64 { return float64(s.store.Hits()) })
	cfg.Reg.RegisterFunc("artifact_cache_misses_total", func() float64 { return float64(s.store.Misses()) })
	cfg.Reg.RegisterFunc("artifact_cache_builds_total", func() float64 { return float64(s.store.Builds()) })
	cfg.Reg.RegisterFunc("artifact_cache_entries", func() float64 { return float64(s.store.Len()) })
	for i := 0; i < cfg.Slots; i++ {
		s.wg.Add(1)
		go s.slot()
	}
	return s
}

// Store exposes the artifact store (tests assert its hit/build counters).
func (s *Server) Store() *flows.Store { return s.store }

// Registry exposes the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// TenantName validates and normalizes a tenant identity: "" maps to
// "default"; otherwise up to 64 chars of [A-Za-z0-9._-].
func TenantName(raw string) (string, error) {
	if raw == "" {
		return "default", nil
	}
	if len(raw) > 64 {
		return "", fmt.Errorf("%w: tenant name longer than 64 chars", ErrBadSpec)
	}
	for _, c := range raw {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", fmt.Errorf("%w: tenant name %q (want [A-Za-z0-9._-])", ErrBadSpec, raw)
		}
	}
	return raw, nil
}

// Submit validates a spec and offers it to the fair scheduler. On
// rejection it returns a *sched.ShedError (per-tenant 429 with an
// honest Retry-After), ErrDraining after Drain began, or ErrBadSpec /
// ErrUnknownKind for malformed specs.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if _, ok := s.kinds[spec.Kind]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, spec.Kind)
	}
	tenant, err := TenantName(spec.Tenant)
	if err != nil {
		return nil, err
	}
	class, err := sched.ParseClass(spec.Class)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if spec.DeadlineMS < 0 {
		return nil, fmt.Errorf("%w: negative deadlineMS %d", ErrBadSpec, spec.DeadlineMS)
	}
	deadline := time.Duration(spec.DeadlineMS) * time.Millisecond

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), spec, tenant, s.cfg.EventLogCap)
	if err := s.sched.Enqueue(tenant, class, deadline, j); err != nil {
		s.nextID--
		s.mu.Unlock()
		if errors.Is(err, sched.ErrClosed) {
			return nil, ErrDraining
		}
		s.mRejected.Inc()
		s.tenantMetrics(tenant).shed.Inc()
		return nil, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.mQueued.Inc()
	s.tenantMetrics(tenant).admitted.Inc()
	s.gQueueDepth.Add(1)
	s.logf("job %s queued kind=%s tenant=%s class=%s", j.ID, spec.Kind, tenant, class)
	return j, nil
}

// Submission errors, mapped to HTTP statuses by the handler.
var (
	ErrUnknownKind = errors.New("unknown job kind")
	ErrBadSpec     = errors.New("bad job spec")
)

// RetryAfter estimates how many seconds a 429'd tenant should wait
// before resubmitting: its backlog over its fair share of slots at the
// observed mean job duration, clamped to [1s, 60s].
func (s *Server) RetryAfter(tenant string) int {
	return s.sched.RetryAfter(tenant)
}

// Job looks a retained job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// evicted reports whether id names a job this server issued and has
// since evicted from its table of finished jobs.
func (s *Server) evicted(id string) bool {
	digits, ok := strings.CutPrefix(id, "j")
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || fmt.Sprintf("j%06d", n) != id {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, kept := s.jobs[id]
	return n >= 1 && n <= s.nextID && !kept
}

// retained returns the retained jobs in submission order.
func (s *Server) retained() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// List snapshots every retained job in submission order.
func (s *Server) List() []Snapshot {
	jobs := s.retained()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// setState moves j to st (see Job.setState) and, on a terminal state,
// counts the outcome and retires j to the table of finished jobs. It
// reports whether the transition happened.
func (s *Server) setState(j *Job, st State, msg string) bool {
	if !j.setState(st, msg) {
		return false
	}
	switch st {
	case StateSucceeded:
		s.mSucceeded.Inc()
	case StateFailed:
		s.mFailed.Inc()
	case StateCanceled:
		s.mCanceled.Inc()
	case StateInterrupted:
		s.mInterrupted.Inc()
	}
	if st.Done() {
		s.retire(j)
	}
	return true
}

// retire files a finished job in the bounded table, evicting the job that
// finished longest ago once MaxFinishedJobs are kept. Evicted IDs leave
// the listing order in bulk, once they are half of it.
func (s *Server) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.finished[s.nextFin]; old != "" {
		delete(s.jobs, old)
		s.mEvicted.Inc()
	}
	s.finished[s.nextFin] = j.ID
	s.nextFin = (s.nextFin + 1) % MaxFinishedJobs
	if len(s.order) > 2*len(s.jobs) {
		s.order = slices.DeleteFunc(s.order, func(id string) bool {
			_, ok := s.jobs[id]
			return !ok
		})
	}
}

// Cancel cancels a queued or running job. Queued jobs flip to canceled
// immediately (the slot skips them); running jobs get their context
// canceled with ErrCanceled and finish when the flow unwinds.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(ErrCanceled)
		return j, true
	}
	if s.setState(j, StateCanceled, ErrCanceled.Error()) {
		s.logf("job %s canceled while queued", j.ID)
	}
	return j, true
}

// Drain stops accepting submissions, cancels running jobs with the drain
// cause — their campaigns finish in-flight chunks and flush checkpoint
// journals — lets queued jobs fail over to interrupted, and waits for the
// scheduler to go quiet. It is the SIGTERM path; rescued exits 0 after it
// returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	jobs := s.retained()

	// Closing the scheduler stops the slots and hands back every
	// undelivered job; marking them interrupted here keeps the depth
	// gauge honest without racing the cancel sweep below (setState is
	// idempotent — the first terminal state wins).
	for _, p := range s.sched.Close() {
		s.gQueueDepth.Add(-1)
		s.setState(p.(*Job), StateInterrupted, ErrDraining.Error())
	}

	for _, j := range jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(ErrDraining)
		} else {
			s.setState(j, StateInterrupted, ErrDraining.Error())
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// slot is one scheduler worker: it owns at most one running job at a
// time, pulled from the fair scheduler in DRR order. The release
// callback frees the job's tenant in-flight slot whether the job ran or
// was skipped (canceled while queued).
func (s *Server) slot() {
	defer s.wg.Done()
	for {
		p, release, ok := s.sched.Next()
		if !ok {
			return
		}
		j := p.(*Job)
		s.gQueueDepth.Add(-1)
		s.runJob(j)
		release()
	}
}

// runJob drives one job through the runner.
func (s *Server) runJob(j *Job) {
	runner := s.kinds[j.Spec.Kind]

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	j.mu.Lock()
	if j.state.Done() { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.cancel = cancel
	j.mu.Unlock()

	if !s.setState(j, StateRunning, "") {
		return
	}
	s.jobWG.Add(1)
	defer s.jobWG.Done()
	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)
	s.logf("job %s running", j.ID)
	start := time.Now()

	// Throttled progress events: at most one per percent of a campaign's
	// work (plus its completion), so streams stay light even for
	// million-fault campaigns. A flow runs many campaigns back to back;
	// completion resets the threshold for the next one.
	var lastPct int64 = -1
	ctx = fault.WithProgress(ctx, func(done, total int64) {
		pct := int64(0)
		if total > 0 {
			pct = 100 * done / total
		}
		j.mu.Lock()
		if pct > lastPct || done == total {
			lastPct = pct
			if done == total {
				lastPct = -1
			}
			j.appendLocked(Event{Type: "progress", Done: done, Total: total})
		}
		j.mu.Unlock()
	})
	ctx = obs.WithTracer(ctx, s.reg)

	ck, ckPath, err := s.openCheckpoint(j)
	if err != nil {
		s.setState(j, StateFailed, err.Error())
		return
	}
	j.setCkPath(ckPath)

	ctx = withJob(ctx, j)
	out, runErr := runner(ctx, RunContext{
		Env:           flows.Env{Store: s.store, Ck: ck},
		Workers:       s.cfg.Workers,
		CheckpointDir: s.cfg.CheckpointDir,
	}, j.Spec.Params)
	j.finishOutput(out)
	s.hJobSeconds.Observe(time.Since(start).Seconds())

	st, msg := StateSucceeded, ""
	switch {
	case runErr == nil:
		if ckPath != "" {
			os.Remove(ckPath)
		}
	case errors.Is(runErr, ErrCanceled):
		st, msg = StateCanceled, ErrCanceled.Error()
	case errors.Is(runErr, ErrDraining):
		st, msg = StateInterrupted, ErrDraining.Error()
	default:
		st, msg = StateFailed, runErr.Error()
	}
	s.setState(j, st, msg)
	sn := j.snapshot()
	s.logf("job %s %s (%s)", j.ID, sn.State, time.Since(start).Round(time.Millisecond))
}

// openCheckpoint opens the job's content-addressed campaign journal when
// checkpointing is configured and the kind runs campaigns. A journal left
// behind by a drained twin is resumed; a fresh path starts a new journal.
func (s *Server) openCheckpoint(j *Job) (*fault.Checkpoint, string, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, "", nil
	}
	path := filepath.Join(s.cfg.CheckpointDir, specDigest(j.Spec)+".ck")
	_, statErr := os.Stat(path)
	resume := statErr == nil
	ck, err := fault.OpenCheckpoint(path, resume)
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: %w", err)
	}
	// The journal path already encodes the job's full identity (the spec
	// digest), so section matching can go by content: a warm-cache run
	// journals only the campaigns it actually simulated, and a cold resume
	// must find them regardless of position.
	ck.ContentAddressed()
	if resume {
		j.append(Event{Type: "output", Msg: "resuming from checkpoint journal"})
	}
	return ck, path, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// hashBytes is the digest primitive shared with the job identity.
func hashBytes(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:8]
}
