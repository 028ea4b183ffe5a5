package atpg

import (
	"context"
	"math/rand"

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
	// Workers sets the fault-simulation campaign concurrency
	// (<= 0 = all cores). Results are identical at any worker count.
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
	// words dropped, gate events, wall time across all dropWord passes).
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
// error.
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
	// is allocated once. MaxFail=1: detection-only, the coverage loop never
	// needs more than the first failing bit.
	camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: cfg.Workers, MaxFail: 1})
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
	// X-fill. Each filled word is fault-simulated to drop secondaries.
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
	for i := range remaining {
		if !remaining[i] {
			continue
		}
		// PODEM runs are serial CPU work outside the campaign engine; check
		// for cancellation between faults so a Ctrl-C lands promptly here
		// too.
		if err := ctx.Err(); err != nil {
			return partial(), context.Cause(ctx)
		}
		cube, res := Podem(n, u.Collapsed[i], cfg.MaxBacktracks)
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
				// the cube's own word should have detected it; if random
				// fill masked it (can't for a true PODEM test), it stays
				// remaining and is counted aborted below
				continue
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
	if err := flush(); err != nil {
		return partial(), err
	}
	return partial(), nil
}

// CompactReverseContext performs reverse-order static compaction: vectors
// are dropped greedily (newest first) when the remaining set still detects
// every originally-detected fault. It returns the compacted vector count.
// The paper's vector counts come from a commercial tool with compaction;
// this pass approximates it. Each trial detection sweep is a parallel
// campaign with fault dropping (detection-only, workers <= 0 = all cores)
// that aborts at chunk granularity when ctx is cancelled; the error then
// carries the cancellation cause.
func CompactReverseContext(ctx context.Context, c *scan.Chain, u *fault.Universe, g *GenResult, workers int) (int, error) {
	// Build per-vector detection sets lazily is expensive; approximate by
	// word granularity: try dropping whole 64-lane words from the end.
	kept := make([]bool, len(g.Sim.Patterns))
	for i := range kept {
		kept[i] = true
	}
	detectedBy := func(words []bool) (int, error) {
		sim := fault.NewSim(c, nil)
		for w, k := range words {
			if k {
				sim.AddPattern(g.Sim.Patterns[w])
			}
		}
		camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: workers, Drop: true})
		results, _, err := camp.RunCheckpoint(ctx, nil, u.Collapsed)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, res := range results {
			if res.Detected {
				n++
			}
		}
		return n, nil
	}
	full, err := detectedBy(kept)
	if err != nil {
		return 0, err
	}
	for w := len(kept) - 1; w >= 0; w-- {
		kept[w] = false
		d, err := detectedBy(kept)
		if err != nil {
			return 0, err
		}
		if d < full {
			kept[w] = true
		}
	}
	vectors := 0
	for w, k := range kept {
		if k {
			vectors += g.Sim.Patterns[w].Lanes
		}
	}
	return vectors, nil
}
