package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/netlist"
)

// Stats counts what a campaign (or one of its runs) actually did — the
// observability record the CLIs print.
type Stats struct {
	Faults     int64 // fault simulations performed
	Detected   int64 // faults the pattern set detected
	Words      int64 // (fault, word) pairs entered; a detect-only run stops at detection
	Events     int64 // gate evaluations performed
	Rehydrated int64 // results restored from a checkpoint journal, not simulated
	Wall       time.Duration
	Workers    int
}

// Add accumulates another run's stats (wall times sum; workers keep the max).
func (s *Stats) Add(o Stats) {
	s.Faults += o.Faults
	s.Detected += o.Detected
	s.Words += o.Words
	s.Events += o.Events
	s.Rehydrated += o.Rehydrated
	s.Wall += o.Wall
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// ErrCampaignBusy is returned when RunCheckpoint/RunWordsCheckpoint is
// called while another run on the same Campaign is still in flight.
// Overlapping runs would share the per-worker scratch state and corrupt both
// results silently; the guard turns that latent hazard into an immediate
// error.
var ErrCampaignBusy = errors.New("fault: campaign already running — RunCheckpoint/RunWordsCheckpoint calls must not overlap")

// ErrChaosCancel is the cancellation cause injected by the chaos harness
// (ChaosCancelAfterSims) to simulate an operator interrupt at a
// deterministic amount of completed work.
var ErrChaosCancel = errors.New("fault: chaos harness simulated an interrupt")

// PanicError reports a panic recovered inside a campaign worker. The
// offending fault index is preserved so the defect is reproducible with a
// single serial simulation; sibling workers are cancelled and drain at the
// next chunk boundary, so one bad fault site cannot take down the process.
type PanicError struct {
	FaultIndex int    // index into the run's fault slice (-1 if outside a sim)
	Value      any    // the recovered panic value
	Stack      []byte // stack of the panicking worker
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: campaign worker panicked on fault index %d: %v", e.FaultIndex, e.Value)
}

// Interrupted reports whether err is a cooperative-cancellation outcome —
// a caller context cancel/deadline or a chaos-harness interrupt — as
// opposed to a hard failure such as a worker panic. Interrupted runs leave
// valid journaled work behind and are the ones worth resuming.
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrChaosCancel)
}

// Chaos harness: an armed process-wide simulation budget. Once the total
// number of fault simulations crosses the limit, every running campaign
// cancels itself (cause ErrChaosCancel) at its next chunk boundary — a
// deterministic stand-in for Ctrl-C used by CI's kill-and-resume checks.
var (
	chaosLimit atomic.Int64
	chaosSims  atomic.Int64
)

// ChaosCancelAfterSims arms (n > 0) or disarms (n <= 0) the chaos budget
// and resets the simulation counter. Rehydrated checkpoint results do not
// count against the budget, so a resumed run proceeds past the point where
// the previous run was "killed".
func ChaosCancelAfterSims(n int64) {
	chaosSims.Store(0)
	chaosLimit.Store(n)
}

func chaosTripped() bool {
	limit := chaosLimit.Load()
	return limit > 0 && chaosSims.Load() >= limit
}

// campaignSimHook, when non-nil, runs before every fault simulation. The
// chaos tests use it to inject panics and cancellations at exact fault
// indices; it must be set before any campaign starts and never during one.
var campaignSimHook func(faultIndex int)

// CampaignConfig tunes a fault-simulation campaign.
type CampaignConfig struct {
	// Workers is the concurrency degree; <= 0 means runtime.NumCPU().
	Workers int
	// DetectOnly is coverage mode with fault dropping: a fault stops at its
	// first failing observation, later pattern words are skipped for it,
	// and its Result carries Detected only. Off, every fault gets its full
	// syndrome, which isolation, the dictionary and the fab fleet read.
	DetectOnly bool
}

// Campaign shards a fault list across workers that share one read-only
// simCore (good-machine images, cones, the netlist's Flat form) while
// each owns a private simScratch, so no synchronization touches the hot
// loop. Results are always ordered by fault index and bit-identical to
// the serial path regardless of worker count.
//
// Worker scratches come from a grow-only pool on the simCore, shared by
// every campaign over the same simulator, so steady-state runs allocate
// no scratch state at all. Calls must not overlap: an atomic in-use guard
// rejects a second concurrent run with ErrCampaignBusy. The underlying
// Sim's pattern set must not grow during a run.
type Campaign struct {
	cfg   CampaignConfig
	core  *simCore
	inUse atomic.Bool
}

// NewCampaign prepares a campaign over s's netlist and pattern set.
func NewCampaign(s *Sim, cfg CampaignConfig) *Campaign {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	return &Campaign{cfg: cfg, core: &s.simCore}
}

// Workers reports the configured concurrency degree.
func (c *Campaign) Workers() int { return c.cfg.Workers }

// RunCheckpoint simulates every fault against the full pattern set.
// Cancellation is cooperative at chunk granularity: when ctx is cancelled,
// in-flight chunks finish, results computed so far stay valid in the
// returned slice, and the error carries the cancellation cause (or a
// PanicError if a worker died). The run reports progress into any hook
// attached with WithProgress.
//
// A non-nil checkpoint journals the run: chunks already journaled by a
// previous (interrupted) identical run are skipped and their results
// rehydrated; newly completed chunks are appended to the journal and
// flushed crash-safely. A nil checkpoint runs without a journal.
func (c *Campaign) RunCheckpoint(ctx context.Context, ck *Checkpoint, faults []netlist.Fault) ([]Result, Stats, error) {
	return c.run(ctx, ck, faults, 0, len(c.core.Patterns))
}

// RunWordsCheckpoint is RunCheckpoint over pattern words [wLo, wHi) only —
// the campaign form of the ATPG per-word fault-dropping loop.
func (c *Campaign) RunWordsCheckpoint(ctx context.Context, ck *Checkpoint, faults []netlist.Fault, wLo, wHi int) ([]Result, Stats, error) {
	return c.run(ctx, ck, faults, wLo, wHi)
}

func (c *Campaign) run(ctx context.Context, ck *Checkpoint, faults []netlist.Fault, wLo, wHi int) ([]Result, Stats, error) {
	if !c.inUse.CompareAndSwap(false, true) {
		return nil, Stats{}, ErrCampaignBusy
	}
	defer c.inUse.Store(false)

	start := time.Now()
	out := make([]Result, len(faults))
	st := Stats{Workers: c.workersFor(len(faults))}

	report := orderedProgress(ProgressFromContext(ctx), int64(len(faults)))

	// The campaign's content identity, needed by the checkpoint journal and
	// by the shard machinery; skipped entirely (it walks the fault list and
	// pattern window) when neither is in play.
	tgt := shardTargetFrom(ctx)
	plan := shardPlanFrom(ctx)
	var id CampaignKey
	if ck != nil || tgt != nil || plan != nil {
		id = campaignIdentity(c.core, faults, wLo, wHi, c.cfg)
	}

	// Shard-worker path: this campaign is the one a coordinator assigned a
	// window of. Simulate only that window and stop the flow.
	if tgt != nil && tgt.claim(id) {
		return c.runWindow(ctx, tgt.res, faults, wLo, wHi, start)
	}

	// Bind the next journal section and rehydrate completed chunks.
	var sec *ckSection
	var done []bool
	if ck != nil {
		var err error
		sec, err = ck.section(id)
		if err != nil {
			return nil, st, err
		}
		done, st.Rehydrated = sec.restore(out)
		if st.Rehydrated > 0 {
			report(st.Rehydrated)
		}
		if st.Rehydrated == int64(len(faults)) {
			// Everything was journaled; nothing to simulate.
			st.Wall = time.Since(start)
			return out, st, ck.Flush()
		}
	}

	if err := ctx.Err(); err != nil {
		return out, st, context.Cause(ctx)
	}

	// Coordinator path: fan this campaign's pending ranges out to remote
	// workers first. Shards that fail to dispatch stay pending and the
	// local worker pool below picks them up — local fallback is the default
	// code path, not a special case.
	if plan.eligible(len(faults), wLo, wHi, len(c.core.Patterns)) {
		done = c.dispatchShards(ctx, plan, id, out, sec, done, report, &st)
		if err := ctx.Err(); err != nil {
			if ck != nil {
				if ferr := ck.Flush(); ferr != nil {
					return out, st, ferr
				}
			}
			return out, st, context.Cause(ctx)
		}
	}

	// Periodic crash-safety flush while the run is in flight: a hard kill
	// loses at most the last flush interval of completed chunks.
	var flusherDone chan struct{}
	if ck != nil {
		flusherDone = make(chan struct{})
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-flusherDone:
					return
				case <-t.C:
					_ = ck.Flush()
				}
			}
		}()
	}

	sims, err := c.pool(ctx, faults, out, done, 0, len(faults), wLo, wHi, func(lo, hi, fresh int) {
		if sec != nil {
			sec.record(lo, hi, out, done)
		}
		if fresh > 0 {
			report(int64(fresh))
		}
	})
	if flusherDone != nil {
		close(flusherDone)
	}
	st.Add(sims)
	st.Wall = time.Since(start)

	if ck != nil {
		// Flush even on error: an interrupted run's completed chunks are
		// exactly what the resume rehydrates.
		if ferr := ck.Flush(); err == nil {
			err = ferr
		}
	}
	return out, st, err
}

// runWindow is the shard-worker execution path entered from run when a
// WithShardTarget assignment claims this campaign: simulate only fault
// indices [res.Lo, res.Hi), seal them into the collector, and return
// ErrShardDone so the surrounding flow stops instead of computing work the
// coordinator never asked for. The window runs on the same scratch pool
// and chunk queue as a full campaign, so its results are bit-identical to
// the same indices of a local run at any worker count. Shard windows are
// not journaled: a failed shard is retried wholesale, and idempotence
// comes from the content digest, not from resume.
func (c *Campaign) runWindow(ctx context.Context, res *ShardResult, faults []netlist.Fault,
	wLo, wHi int, start time.Time) ([]Result, Stats, error) {

	lo, hi := res.Lo, res.Hi
	if lo < 0 || hi <= lo || hi > len(faults) {
		return nil, Stats{}, fmt.Errorf("fault: shard window [%d,%d) out of range for %d faults", lo, hi, len(faults))
	}
	out := make([]Result, len(faults))
	st := Stats{Workers: c.workersFor(hi - lo)}
	if err := ctx.Err(); err != nil {
		return out, st, context.Cause(ctx)
	}

	report := orderedProgress(ProgressFromContext(ctx), int64(hi-lo))
	sims, err := c.pool(ctx, faults, out, nil, lo, hi, wLo, wHi, func(_, _, fresh int) {
		report(int64(fresh))
	})
	st.Add(sims)
	st.Wall = time.Since(start)

	if err != nil {
		// A cancelled or panicking window is a real failure, never
		// ErrShardDone: the coordinator must not merge a partial shard.
		return out, st, err
	}
	res.Results = append([]Result(nil), out[lo:hi]...)
	res.Stats = st
	_, res.Digest = sealResults(res.Results)
	return out, st, ErrShardDone
}

// workersFor caps the configured concurrency at the n faults to simulate.
func (c *Campaign) workersFor(n int) int {
	return max(1, min(c.cfg.Workers, n))
}

// pool simulates fault indices [lo, hi) into out on the campaign's worker
// pool — the one loop behind full runs and shard windows alike. Each
// worker owns a pooled scratch and claims chunks from a work-stealing
// queue until the range drains, the context is cancelled or the chaos
// budget trips; a chunk in flight always completes, and then onChunk
// (journaling, progress) runs on the worker with the chunk's range and
// its count of freshly simulated faults. A worker panic cancels the pool
// with a PanicError naming the offending fault index. pool returns the
// merged per-worker simulation counts and the pool's cancellation cause
// (nil when the range drained).
func (c *Campaign) pool(ctx context.Context, faults []netlist.Fault, out []Result, done []bool,
	lo, hi, wLo, wHi int, onChunk func(lo, hi, fresh int)) (Stats, error) {

	workers := c.workersFor(hi - lo)
	scrs := c.core.acquireScratch(workers)
	defer c.core.releaseScratch(scrs)
	q := newChunkQueue(hi-lo, workers)
	perWorker := make([]Stats, workers)

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					cancel(&PanicError{FaultIndex: cur, Value: r, Stack: debug.Stack()})
				}
			}()
			scr := scrs[w]
			wst := &perWorker[w]
			words0, events0 := scr.words, scr.events
			for {
				// Cooperative cancellation at chunk granularity: a cancelled
				// (or chaos-tripped) worker stops claiming new chunks but the
				// chunk in flight always completes and gets journaled.
				if runCtx.Err() != nil {
					break
				}
				if chaosTripped() {
					cancel(ErrChaosCancel)
					break
				}
				clo, chi, ok := q.next(w)
				if !ok {
					break
				}
				clo, chi = lo+clo, lo+chi
				fresh := c.simChunk(scr, faults, out, done, clo, chi, wLo, wHi, wst, &cur)
				onChunk(clo, chi, fresh)
			}
			wst.Words = scr.words - words0
			wst.Events = scr.events - events0
		}(w)
	}
	wg.Wait()

	var st Stats
	for i := range perWorker {
		st.Add(perWorker[i])
	}
	return st, context.Cause(runCtx)
}

// simChunk simulates fault indices [lo, hi) into out, skipping entries
// marked done, and returns the number of freshly simulated faults. cur
// tracks the in-flight fault index for the worker's panic recovery. The
// counts reach wst once per chunk: the workers' Stats sit side by side in
// one slice, and a write per fault would bounce their shared cache line
// between cores.
func (c *Campaign) simChunk(scr *simScratch, faults []netlist.Fault, out []Result,
	done []bool, lo, hi, wLo, wHi int, wst *Stats, cur *int) int {

	fresh, detected := 0, 0
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue
		}
		fresh++
		*cur = i
		if campaignSimHook != nil {
			campaignSimHook(i)
		}
		out[i] = c.core.run(scr, faults[i], c.cfg.DetectOnly, wLo, wHi)
		if out[i].Detected {
			detected++
		}
	}
	*cur = -1
	// chaosTripped reads the budget only at chunk boundaries, so one add
	// per chunk keeps the workers off the shared counter's cache line.
	chaosSims.Add(int64(fresh))
	wst.Faults += int64(fresh)
	wst.Detected += int64(detected)
	return fresh
}

// chunkQueue is a work-stealing dispatch queue over fault indices [0, n):
// the range is pre-split into one contiguous segment per worker, each
// consumed front-to-back in fixed-size chunks via an atomic cursor. A
// worker that drains its own segment steals chunks from the segment with
// the most work remaining, so one fault with a huge propagation region
// (or a skewed segment) cannot stall the rest of the pool.
type chunkQueue struct {
	segs  []chunkSeg
	chunk int64
}

type chunkSeg struct {
	pos atomic.Int64 // next unclaimed index
	end int64        // one past the last index (immutable)
	_   [6]int64     // keep cursors on separate cache lines
}

func newChunkQueue(n, workers int) *chunkQueue {
	// Small chunks keep stealing effective; larger ones amortize the atomic
	// op. ~16 chunks per worker balances both.
	chunk := n / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	q := &chunkQueue{segs: make([]chunkSeg, workers), chunk: int64(chunk)}
	per := n / workers
	rem := n % workers
	lo := 0
	for i := range q.segs {
		hi := lo + per
		if i < rem {
			hi++
		}
		q.segs[i].pos.Store(int64(lo))
		q.segs[i].end = int64(hi)
		lo = hi
	}
	return q
}

// take claims the next chunk of segment i, if any.
func (q *chunkQueue) take(i int) (lo, hi int, ok bool) {
	s := &q.segs[i]
	for {
		p := s.pos.Load()
		if p >= s.end {
			return 0, 0, false
		}
		h := p + q.chunk
		if h > s.end {
			h = s.end
		}
		if s.pos.CompareAndSwap(p, h) {
			return int(p), int(h), true
		}
	}
}

// next returns worker self's next chunk: its own segment first, then a
// steal from the fullest remaining segment.
func (q *chunkQueue) next(self int) (lo, hi int, ok bool) {
	if lo, hi, ok = q.take(self); ok {
		return lo, hi, true
	}
	for {
		best, bestRem := -1, int64(0)
		for i := range q.segs {
			if rem := q.segs[i].end - q.segs[i].pos.Load(); rem > bestRem {
				best, bestRem = i, rem
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		if lo, hi, ok = q.take(best); ok {
			return lo, hi, true
		}
	}
}
