package atpg

import (
	"context"
	"errors"
	"math/rand"
	"runtime/debug"
	"sync"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/scan"
)

// GenConfig tunes the pattern-generation flow.
type GenConfig struct {
	// MaxRandomWords caps the random phase (64 patterns per word).
	MaxRandomWords int
	// UselessLimit ends the random phase after this many consecutive words
	// that detect no new fault.
	UselessLimit int
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// Seed drives random pattern generation and X-fill.
	Seed int64
	// Workers sets the concurrency of both PODEM search and the
	// fault-simulation campaigns (<= 0 = all cores). Results are identical
	// at any worker count.
	Workers int
}

// DefaultGenConfig matches common production ATPG settings.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxRandomWords: 64, UselessLimit: 4, MaxBacktracks: 500, Seed: 1}
}

// GenResult summarizes a generation run — the quantities Table 3 of the
// paper reports.
type GenResult struct {
	Sim *fault.Sim // holds the final pattern set and good responses

	Vectors    int // scan loads (test patterns)
	Faults     int // uncollapsed fault universe size
	Collapsed  int
	Detected   int
	Untestable int
	Aborted    int
	Coverage   float64 // detected / (collapsed - untestable)
	ScanCells  int
	Cycles     int // tester cycles to apply all vectors

	// Stats accumulates the fault-dropping campaign work (faults simulated,
	// word-sims, gate events, wall time across all dropWord passes).
	Stats fault.Stats
}

// GenerateFlow runs the full ATPG flow on a scan-inserted netlist: a
// random phase with fault dropping, then PODEM for the survivors. It takes
// cooperative cancellation and an optional campaign checkpoint journal. The
// flow is deterministic for a given (config, netlist): on resume it is
// re-executed from the start and every journaled fault-dropping campaign
// rehydrates instead of simulating, so a killed-and-resumed generation is
// bit-identical to an uninterrupted one. On cancellation the partial
// GenResult (with its campaign Stats so far) is returned alongside the
// error, and a panic in a PODEM search comes back as a *fault.PanicError
// naming the collapsed fault index.
func GenerateFlow(ctx context.Context, c *scan.Chain, u *fault.Universe, cfg GenConfig, ck *fault.Checkpoint) (*GenResult, error) {
	defer obs.Span(ctx, "atpg_generate")()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sim := fault.NewSim(c, nil)
	n := c.N

	remaining := make([]bool, u.CountCollapsed())
	for i := range remaining {
		remaining[i] = true
	}
	nRemaining := len(remaining)
	detected := 0
	vectors := 0
	untestable, aborted := 0, 0

	// One campaign serves every dropWord pass, so per-worker scratch state
	// is allocated once. Detect-only: the coverage loop reads nothing but
	// whether a fault is detected.
	camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: cfg.Workers, DetectOnly: true})
	var campStats fault.Stats

	// partial assembles the result from whatever the flow has finished —
	// the complete answer on success, the progress record on interrupt.
	partial := func() *GenResult {
		res := &GenResult{
			Sim:        sim,
			Vectors:    vectors,
			Faults:     u.CountAll(),
			Collapsed:  u.CountCollapsed(),
			Detected:   detected,
			Untestable: untestable,
			Aborted:    aborted,
			ScanCells:  c.Cells(),
			Cycles:     c.TestCycles(vectors),
			Stats:      campStats,
		}
		if d := u.CountCollapsed() - untestable; d > 0 {
			res.Coverage = float64(detected) / float64(d)
		}
		return res
	}

	aliveIdx := make([]int, 0, nRemaining)
	aliveFaults := make([]netlist.Fault, 0, nRemaining)

	dropWord := func(w int) (int, error) {
		aliveIdx = aliveIdx[:0]
		aliveFaults = aliveFaults[:0]
		for i, alive := range remaining {
			if !alive {
				continue
			}
			aliveIdx = append(aliveIdx, i)
			aliveFaults = append(aliveFaults, u.Collapsed[i])
		}
		results, st, err := camp.RunWordsCheckpoint(ctx, ck, aliveFaults, w, w+1)
		campStats.Add(st)
		if err != nil {
			return 0, err
		}
		dropped := 0
		for k, res := range results {
			if res.Detected {
				remaining[aliveIdx[k]] = false
				nRemaining--
				detected++
				dropped++
			}
		}
		return dropped, nil
	}

	randomWord := func() *scan.Pattern {
		p := c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = rng.Uint64()
		}
		for i := range p.PIVals {
			p.PIVals[i] = rng.Uint64()
		}
		return p
	}

	// Phase 1: random patterns with fault dropping.
	useless := 0
	for w := 0; w < cfg.MaxRandomWords && nRemaining > 0 && useless < cfg.UselessLimit; w++ {
		sim.AddPattern(randomWord())
		vectors += 64
		d, err := dropWord(len(sim.Patterns) - 1)
		if err != nil {
			return partial(), err
		}
		if d == 0 {
			useless++
		} else {
			useless = 0
		}
	}

	// Phase 2: PODEM for survivors, packing cubes 64 to a word with random
	// X-fill. Each filled word is fault-simulated to drop secondaries. The
	// searches run ahead on the workers; verdicts commit here in fault
	// order, so the test set is the same at any worker count.
	var cur *scan.Pattern
	curLanes := 0
	flush := func() error {
		if cur == nil || curLanes == 0 {
			return nil
		}
		cur.Lanes = curLanes
		sim.AddPattern(cur)
		vectors += curLanes
		_, err := dropWord(len(sim.Patterns) - 1)
		cur, curLanes = nil, 0
		return err
	}
	xfill := func() uint64 { return rng.Uint64() }
	var todo []int
	for i, alive := range remaining {
		if alive {
			todo = append(todo, i)
		}
	}
	sp := startSearch(ctx, n, u.Collapsed, todo, cfg.MaxBacktracks, camp.Workers())
	defer sp.stop()
	for k, i := range todo {
		if !remaining[i] { // a flush dropped it: its search is discarded
			continue
		}
		cube, res, err := sp.result(k)
		if err != nil {
			return partial(), err
		}
		switch res {
		case Untestable:
			remaining[i] = false
			nRemaining--
			untestable++
			continue
		case Aborted:
			aborted++
			continue
		}
		if cur == nil {
			cur = c.NewPattern(0)
		}
		cube.Apply(cur, uint(curLanes), xfill)
		curLanes++
		if curLanes == 64 {
			if err := flush(); err != nil {
				return partial(), err
			}
			if !remaining[i] {
				continue // its own word detected it
			}
			// self-detection is guaranteed by PODEM; mark defensively
			remaining[i] = false
			nRemaining--
			detected++
		} else {
			remaining[i] = false
			nRemaining--
			detected++
		}
	}
	if err := sp.stop(); err != nil {
		return partial(), err
	}
	if err := flush(); err != nil {
		return partial(), err
	}
	return partial(), nil
}

// searchLookahead is how many faults per worker PODEM search may run ahead
// of the committing loop. A search past a flush that drops its fault is
// wasted; flushes are rare, so a short window still keeps every worker busy.
const searchLookahead = 8

// searchHook, when non-nil, runs on a search worker before each PODEM run
// with the fault's collapsed index. The cancel and panic tests use it; it
// must be set before GenerateFlow starts and never during it.
var searchHook func(faultIndex int)

// searchPool runs PODEM for a fixed fault list on worker goroutines, each
// with its own searcher, and hands the verdicts back in list order. Workers
// take faults in list order and never more than the lookahead past the
// last one waited for. A verdict depends only on (netlist, fault, backtrack
// cap), so which worker searched a fault never shows.
type searchPool struct {
	todo  []int // collapsed fault indices, in search order
	slots []searchSlot
	jobs  chan int // positions in todo, fed in order by result
	fed   int
	ahead int

	ctx    context.Context // canceled by the caller, by stop, or by a worker panic
	quit   context.CancelCauseFunc
	wg     sync.WaitGroup
	panics []error // per worker: its recovered panic, read after wg.Wait
}

// searchSlot holds one fault's verdict; done closes once it is written.
type searchSlot struct {
	cube Cube
	res  PodemResult
	done chan struct{}
}

// startSearch starts min(workers, len(todo)) search workers over faults.
func startSearch(ctx context.Context, n *netlist.Netlist, faults []netlist.Fault, todo []int, maxBacktracks, workers int) *searchPool {
	workers = min(workers, len(todo))
	sp := &searchPool{
		todo:  todo,
		slots: make([]searchSlot, len(todo)),
		// Sized to every send, so feeding never blocks on a slow worker.
		jobs:   make(chan int, len(todo)),
		ahead:  searchLookahead * workers,
		panics: make([]error, workers),
	}
	sp.ctx, sp.quit = context.WithCancelCause(ctx)
	for w := 0; w < workers; w++ {
		sp.wg.Add(1)
		go func() {
			defer sp.wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil {
					pe := &fault.PanicError{FaultIndex: cur, Value: r, Stack: debug.Stack()}
					sp.panics[w] = pe
					sp.quit(pe)
				}
			}()
			s := newSearcher(n, maxBacktracks)
			for k := range sp.jobs {
				if sp.ctx.Err() != nil {
					return
				}
				cur = todo[k]
				if searchHook != nil {
					searchHook(cur)
				}
				sp.slots[k].cube, sp.slots[k].res = s.run(faults[cur])
				close(sp.slots[k].done)
			}
		}()
	}
	return sp
}

// result waits for the verdict at position k of the list, first feeding
// the workers up to the lookahead past k. It returns the context's cause
// when the caller cancels or a worker panics.
func (sp *searchPool) result(k int) (Cube, PodemResult, error) {
	for end := min(k+sp.ahead, len(sp.todo)); sp.fed < end; sp.fed++ {
		sp.slots[sp.fed].done = make(chan struct{})
		sp.jobs <- sp.fed
	}
	if sp.ctx.Err() != nil {
		return Cube{}, Aborted, context.Cause(sp.ctx)
	}
	select {
	case <-sp.slots[k].done:
		return sp.slots[k].cube, sp.slots[k].res, nil
	case <-sp.ctx.Done():
		return Cube{}, Aborted, context.Cause(sp.ctx)
	}
}

// stop ends the search and returns once every worker has exited; a search
// in flight finishes first. It returns any worker panic, including one in
// a search whose verdict was never waited for. Calls after the first do
// nothing.
func (sp *searchPool) stop() error {
	if sp.jobs == nil {
		return nil
	}
	sp.quit(nil)
	close(sp.jobs)
	sp.wg.Wait()
	sp.jobs = nil
	return errors.Join(sp.panics...)
}
