package fault

import (
	"math/bits"
	"sort"
	"sync"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// Result is the outcome of simulating one fault against a pattern set:
// whether any pattern detects it and, unless the run was detect-only,
// its syndrome.
//
// Ordering contract (pinned by TestResultOrdering and relied on by the
// differential harness for plain slice equality): FailObs lists each
// failing observation point (netlist.ObsPoints order: FF scan bits first,
// then primary outputs) once, ordered by the word of its first failure,
// then by observation index within that word. Every independent
// implementation of this contract (Sim, Campaign at any worker count,
// Oracle, the cone-clipped and forced full-walk engines) produces
// byte-identical Results.
type Result struct {
	Detected bool
	// FailObs is the fault's syndrome, the set isolation and the
	// dictionary read. A detect-only run stops at the first failing
	// observation and leaves it nil.
	FailObs []int
}

// DefaultConeThreshold is the fan-out-cone size (in gates) above which a
// net's cone is not stored and faults seeded on it fall back to the
// full-netlist event walk. Cones beyond ~1k gates approach the whole
// circuit anyway, so clipping buys nothing there and the threshold bounds
// cone memory at O(threshold) per net worst case.
const DefaultConeThreshold = 1024

// simCore is the read-only half of a fault simulator: the netlist, scan
// chain, pattern set, precomputed good-machine images, and static
// structure. Once the pattern set stops growing, a simCore is safe to
// share across any number of concurrent workers — everything mutable
// lives in simScratch, and the scratch pool below hands one to each.
type simCore struct {
	C        *scan.Chain
	N        *netlist.Netlist
	Patterns []*scan.Pattern

	goodResp [][]uint64 // [word][obs]
	goodNets [][]uint64 // [word][net] post-EvalComb values (pre-capture)
	masks    []uint64   // [word] cached Pattern.LaneMask()

	// fl is the netlist's compiled form (gate arrays, pin and reader CSR,
	// levels, observation chains), held by value so the event loops read
	// its arrays one field deep.
	fl netlist.Flat

	// Fan-out cones, CSR per net: coneGates[coneOff[net]:coneOff[net+1]]
	// is the transitive fan-out gate set of the net, sorted by (level,
	// gate id) so a single forward sweep evaluates it in topological
	// order. coneObs is the reachable observation-point set (points on
	// the net itself or on any cone gate's output). coneFull marks nets
	// whose cone exceeded the threshold: no cone is stored and faults
	// there take the full-netlist walk. coneDownObs reports whether any
	// observation point is reachable beyond the seed net itself — when
	// false, propagation cannot record anything and is skipped entirely.
	coneThreshold int
	coneOff       []int32
	coneGates     []netlist.GateID
	coneObsOff    []int32
	coneObs       []int32
	coneFull      []bool
	coneDownObs   []bool

	// Excitation index: per net (and per observation point), one bit per
	// pattern word saying whether any masked lane carries a 0 (has0) or a
	// 1 (has1). A stuck-at-1 fault is excitable in word w only if its
	// seed net has a 0 lane there, and symmetrically for stuck-at-0 — so
	// the cone walk skips a whole (fault, word) simulation with one bit
	// test, never touching the word's 32KB good-machine image. Rows are
	// net-major (net*exStride + w/64) so one fault's sweep over words
	// stays inside a single cache line per 512 words.
	// exPinFlip0/1 sharpen the filter for input-pin faults: bit w is set
	// iff forcing that pin to the stuck value changes the gate's output in
	// word w (computed from the good image at AddPattern time). Absorbed
	// words — pin excitable but the gate swallows the change, e.g. an AND
	// with another input at 0 — are skipped without even the seed
	// evaluation, making the skip exact for every fault type.
	exStride   int
	exNetHas0  []uint64
	exNetHas1  []uint64
	exObsHas0  []uint64
	exObsHas1  []uint64
	exPinFlip0 []uint64
	exPinFlip1 []uint64

	// Net-major transposed good image for the clipped path: the value of
	// net n in pattern word w is goodT[n*gtStride+w] (and the response of
	// obs point o is goodRespT[o*gtStride+w]). A clipped fault touches the
	// same ~cone-size set of nets in every word, so iterating words walks
	// short contiguous per-net rows instead of re-faulting a cold 32KB
	// word-major image per word. The full walk keeps the word-major
	// goodNets layout — it scans every net of one word sequentially, which
	// is exactly what word-major is good at.
	gtStride  int
	goodT     []uint64
	goodRespT []uint64

	// Scratch pool shared by every Campaign over this core: scratches are
	// grow-only arenas, so reusing them across runs eliminates per-run
	// allocation churn. Concurrent campaigns simply grow the pool.
	scrMu   sync.Mutex
	scrPool []*simScratch
}

// epochResetLimit bounds the epoch counters well below int32 overflow
// (with headroom for one full fault's worth of increments past the check
// in run). Crossing it re-initializes the marker slab, so epochs
// can never alias stale state no matter how long a scratch lives.
const epochResetLimit = int32(1) << 30

// simScratch is the mutable per-worker half: faulty-value overlays, event
// queues, and dedup markers. The three int32 marker arrays live in one
// grow-only slab allocation and are epoch-cleared — bumping a counter
// invalidates every entry at once — so a scratch is allocated once and
// then serves every (fault, word) simulation of every campaign with zero
// further garbage.
type simScratch struct {
	scratch []uint64           // per-net faulty values (valid when epoch matches)
	slab    []int32            // backing arena for the three marker arrays below
	epoch   []int32            // per-net overlay validity marker (vs curEp)
	schedEp []int32            // per-gate scheduled marker (vs curEp)
	obsEp   []int32            // per-obs FailObs dedup marker (vs runEp)
	curEp   int32              // current (fault, word) epoch
	runEp   int32              // current fault epoch
	buckets [][]netlist.GateID // full-walk event queue bucketed by level

	// counters for campaign Stats
	words  int64 // (fault, word) pairs event-simulated
	events int64 // gate evaluations performed

	// Pad to 192 bytes, three whole cache lines: the workers' scratches
	// are allocated side by side, and a line shared between two of them
	// would bounce the hot epoch and event counters between cores.
	_ [24]byte
}

// Sim is a fault simulator bound to a netlist, a scan chain, and a growable
// pattern set. Good-machine responses and full good-machine net images are
// precomputed per pattern word; each fault is then simulated event-driven
// inside its precomputed fan-out cone — only gates the fault effect
// actually reaches are re-evaluated, good-machine values are read (never
// recomputed) outside the propagation region, and a fault whose site is
// not excited by a word costs O(1) for that word.
//
// A Sim is a simCore plus one private simScratch, so its methods are the
// serial path; Campaign fans the same core out across workers.
type Sim struct {
	simCore
	scr simScratch
}

// NewSim builds a simulator with the default cone threshold and
// precomputes good-machine behavior for the given patterns (which may be
// nil; use AddPattern to grow the set).
func NewSim(c *scan.Chain, patterns []*scan.Pattern) *Sim {
	return NewSimCone(c, patterns, DefaultConeThreshold)
}

// NewSimCone is NewSim with an explicit fan-out-cone threshold.
// threshold <= 0 disables cone clipping entirely: every fault takes the
// full-netlist event walk (the reference path the differential harness
// pins the clipped path against).
func NewSimCone(c *scan.Chain, patterns []*scan.Pattern, threshold int) *Sim {
	s := &Sim{simCore: simCore{C: c, N: c.N, fl: *c.N.Flat()}}
	s.buildCones(threshold)
	s.scr.init(&s.simCore)
	for _, p := range patterns {
		s.AddPattern(p)
	}
	return s
}

// init sizes a scratch for the core's netlist.
func (scr *simScratch) init(c *simCore) {
	n := c.N
	scr.scratch = make([]uint64, n.NumNets())
	// One arena allocation backs all three epoch-cleared marker arrays.
	nNets, nGates := n.NumNets(), n.NumGates()
	scr.slab = make([]int32, nNets+nGates+len(c.fl.ObsNext))
	scr.epoch = scr.slab[:nNets:nNets]
	scr.schedEp = scr.slab[nNets : nNets+nGates : nNets+nGates]
	scr.obsEp = scr.slab[nNets+nGates:]
	scr.buckets = make([][]netlist.GateID, c.fl.MaxLevel+1)
	scr.resetEpochs()
}

// resetEpochs re-initializes every epoch marker and rewinds the counters.
// Called at scratch birth and again whenever a counter approaches the
// int32 ceiling, so marker comparisons can never alias across epochs.
func (scr *simScratch) resetEpochs() {
	for i := range scr.slab {
		scr.slab[i] = -1
	}
	scr.curEp = 0
	scr.runEp = 0
}

// acquireScratch hands out one initialized scratch per requested worker,
// reusing pooled ones first. Scratches persist for the life of the core,
// so steady-state campaigns allocate nothing here.
func (c *simCore) acquireScratch(n int) []*simScratch {
	c.scrMu.Lock()
	defer c.scrMu.Unlock()
	out := make([]*simScratch, n)
	for i := 0; i < n; i++ {
		if k := len(c.scrPool); k > 0 {
			out[i] = c.scrPool[k-1]
			c.scrPool = c.scrPool[:k-1]
		} else {
			scr := &simScratch{}
			scr.init(c)
			out[i] = scr
		}
	}
	return out
}

// releaseScratch returns scratches to the pool for the next run.
func (c *simCore) releaseScratch(scrs []*simScratch) {
	c.scrMu.Lock()
	defer c.scrMu.Unlock()
	c.scrPool = append(c.scrPool, scrs...)
}

// AddPattern appends a pattern word and precomputes its good-machine image.
// Used by the ATPG generator, which grows the pattern set incrementally.
// Not safe to call while a Campaign over this simulator is running.
func (s *simCore) AddPattern(p *scan.Pattern) {
	st := s.N.NewState()
	s.C.Load(st, p)
	st.EvalComb(netlist.NoFault)
	nets := st.Vals
	s.goodNets = append(s.goodNets, nets)
	resp := make([]uint64, s.N.NumFFs()+len(s.N.Outputs))
	for fi := 0; fi < s.N.NumFFs(); fi++ {
		resp[fi] = st.Get(s.N.FFs[fi].D)
	}
	for oi, out := range s.N.Outputs {
		resp[s.N.NumFFs()+oi] = st.Get(out)
	}
	s.goodResp = append(s.goodResp, resp)
	w := len(s.Patterns)
	s.Patterns = append(s.Patterns, p)
	s.masks = append(s.masks, p.LaneMask())

	// Maintain the net-major transposed image for the new word.
	if w >= s.gtStride {
		s.growGoodT(2*s.gtStride + 64)
	}
	gst := s.gtStride
	for net, v := range nets {
		s.goodT[net*gst+w] = v
	}
	for oi, v := range resp {
		s.goodRespT[oi*gst+w] = v
	}

	// Maintain the excitation index for the new word.
	blk, bit := w>>6, uint(w&63)
	if blk >= s.exStride {
		s.growExcite(blk + 1)
	}
	m := s.masks[w]
	for net, v := range nets {
		if v&m != 0 {
			s.exNetHas1[net*s.exStride+blk] |= 1 << bit
		}
		if ^v&m != 0 {
			s.exNetHas0[net*s.exStride+blk] |= 1 << bit
		}
	}
	for oi, v := range resp {
		if v&m != 0 {
			s.exObsHas1[oi*s.exStride+blk] |= 1 << bit
		}
		if ^v&m != 0 {
			s.exObsHas0[oi*s.exStride+blk] |= 1 << bit
		}
	}
	var pbuf [8]uint64
	var pspill []uint64
	for gi := 0; gi < s.N.NumGates(); gi++ {
		lo, hi := s.fl.PinOff[gi], s.fl.PinOff[gi+1]
		ins := pbuf[:0]
		if int(hi-lo) > len(pbuf) {
			pspill = append(pspill[:0], make([]uint64, hi-lo)...)
			ins = pspill[:0]
		}
		for _, in := range s.fl.Pins[lo:hi] {
			ins = append(ins, nets[in])
		}
		gv := nets[s.fl.Out[gi]]
		k := s.fl.Kind[gi]
		for j := range ins {
			sv := ins[j]
			ins[j] = 0
			if (netlist.EvalWord(k, ins)^gv)&m != 0 {
				s.exPinFlip0[(int(lo)+j)*s.exStride+blk] |= 1 << bit
			}
			ins[j] = ^uint64(0)
			if (netlist.EvalWord(k, ins)^gv)&m != 0 {
				s.exPinFlip1[(int(lo)+j)*s.exStride+blk] |= 1 << bit
			}
			ins[j] = sv
		}
	}
}

// growExcite widens the excitation-index rows to stride blocks of 64
// pattern words, preserving existing bits. Called every 64 AddPatterns.
func (s *simCore) growExcite(stride int) {
	grow := func(old []uint64, rows int) []uint64 {
		nw := make([]uint64, rows*stride)
		for r := 0; r < rows; r++ {
			copy(nw[r*stride:], old[r*s.exStride:(r+1)*s.exStride])
		}
		return nw
	}
	nNets := s.N.NumNets()
	s.exNetHas0 = grow(s.exNetHas0, nNets)
	s.exNetHas1 = grow(s.exNetHas1, nNets)
	nObs := len(s.fl.ObsNext)
	s.exObsHas0 = grow(s.exObsHas0, nObs)
	s.exObsHas1 = grow(s.exObsHas1, nObs)
	s.exPinFlip0 = grow(s.exPinFlip0, len(s.fl.Pins))
	s.exPinFlip1 = grow(s.exPinFlip1, len(s.fl.Pins))
	s.exStride = stride
}

// growGoodT widens the transposed good-image rows to stride words,
// preserving existing values. Stride grows geometrically, so the
// amortized cost over incremental AddPattern calls stays linear.
func (s *simCore) growGoodT(stride int) {
	grow := func(old []uint64, rows int) []uint64 {
		nw := make([]uint64, rows*stride)
		for r := 0; r < rows; r++ {
			copy(nw[r*stride:], old[r*s.gtStride:(r+1)*s.gtStride])
		}
		return nw
	}
	s.goodT = grow(s.goodT, s.N.NumNets())
	s.goodRespT = grow(s.goodRespT, len(s.fl.ObsNext))
	s.gtStride = stride
}

// Run simulates fault f against every pattern. With detectOnly the
// simulation stops at the first failing observation and the Result
// carries Detected only (coverage mode); isolation passes false to
// gather the full syndrome.
func (s *Sim) Run(f netlist.Fault, detectOnly bool) Result {
	return s.simCore.run(&s.scr, f, detectOnly, 0, len(s.Patterns))
}

// RunWord simulates fault f against pattern word w only: the serial
// reference that campaign tests compare Campaign.RunWordsCheckpoint
// against.
func (s *Sim) RunWord(f netlist.Fault, w int, detectOnly bool) Result {
	return s.simCore.run(&s.scr, f, detectOnly, w, w+1)
}

// schedule enqueues a gate for (re)evaluation in the current full-walk
// event pass.
func (c *simCore) schedule(scr *simScratch, g netlist.GateID) {
	if scr.schedEp[g] == scr.curEp {
		return
	}
	scr.schedEp[g] = scr.curEp
	lv := c.fl.Level[g]
	scr.buckets[lv] = append(scr.buckets[lv], g)
}

// run simulates fault f over pattern words [wLo, wHi) in a fresh fault
// epoch (the FailObs dedup scope): the one per-fault entry behind Sim.Run,
// Sim.RunWord and every campaign chunk. A detect-only run returns at the
// first failing observation.
func (c *simCore) run(scr *simScratch, f netlist.Fault, detectOnly bool, wLo, wHi int) Result {
	var res Result
	if scr.curEp >= epochResetLimit || scr.runEp >= epochResetLimit {
		scr.resetEpochs()
	}
	scr.runEp++

	var stuckWord uint64
	if f.StuckAt1 {
		stuckWord = ^uint64(0)
	}

	// Resolve the seed site: the net the stuck value first appears on,
	// and whether its stored cone clips this fault's walk.
	var seedNet netlist.NetID
	if f.Gate >= 0 {
		seedNet = c.fl.Out[f.Gate]
	} else {
		seedNet = c.N.FFs[f.FF].Q
	}
	clipped := c.coneThreshold > 0 && !c.coneFull[seedNet]

	// Excitation rows for the clipped path: a word whose bit is clear in
	// every relevant row cannot differ from the good machine anywhere, so
	// the whole (fault, word) simulation is skipped in O(1). For a gate
	// fault the relevant net is the one the stuck value lands on (the
	// output net, or the forced input pin's net — if every masked lane of
	// that net already carries the stuck value, the faulty machine is the
	// good machine). An FF fault additionally captures the stuck value in
	// its own scan cell, so its own response row is OR-ed in.
	var exRow, exOwnRow []uint64
	if clipped {
		if f.Gate >= 0 && f.Pin >= 0 {
			pi := int(c.fl.PinOff[f.Gate]) + f.Pin
			if f.StuckAt1 {
				exRow = c.exPinFlip1[pi*c.exStride : (pi+1)*c.exStride]
			} else {
				exRow = c.exPinFlip0[pi*c.exStride : (pi+1)*c.exStride]
			}
		} else if f.StuckAt1 {
			exRow = c.exNetHas0[int(seedNet)*c.exStride : (int(seedNet)+1)*c.exStride]
		} else {
			exRow = c.exNetHas1[int(seedNet)*c.exStride : (int(seedNet)+1)*c.exStride]
		}
		if f.Gate < 0 {
			if f.StuckAt1 {
				exOwnRow = c.exObsHas0[int(f.FF)*c.exStride : (int(f.FF)+1)*c.exStride]
			} else {
				exOwnRow = c.exObsHas1[int(f.FF)*c.exStride : (int(f.FF)+1)*c.exStride]
			}
		}
	}

	if exRow == nil {
		for w := wLo; w < wHi; w++ {
			scr.words++
			scr.curEp++
			obsStart := len(res.FailObs)

			if clipped {
				c.coneWalkWord(scr, f, &res, stuckWord, seedNet, detectOnly, w)
			} else {
				c.fullWalkWord(scr, f, &res, stuckWord, detectOnly, w)
			}

			sortWord(&res, obsStart)
			if detectOnly && res.Detected {
				return res
			}
		}
		return res
	}

	// Excitable-word iteration: walk the set bits of the excitation rows
	// instead of testing every word, so a run of dead words costs one
	// popcount-style skip. Word accounting matches the plain loop exactly —
	// skipped words count as entered, words past a detecting word of a
	// detect-only run do not.
	for base := wLo &^ 63; base < wHi; base += 64 {
		live := exRow[base>>6]
		if exOwnRow != nil {
			live |= exOwnRow[base>>6]
		}
		from, to := 0, 64
		if base < wLo {
			from = wLo - base
		}
		if base+64 > wHi {
			to = wHi - base
		}
		live = live >> uint(from) << uint(from)
		if to < 64 {
			live &= 1<<uint(to) - 1
		}
		prev := from
		for live != 0 {
			b := bits.TrailingZeros64(live)
			live &= live - 1
			scr.words += int64(b - prev + 1)
			prev = b + 1
			scr.curEp++
			obsStart := len(res.FailObs)

			c.coneWalkWord(scr, f, &res, stuckWord, seedNet, detectOnly, base+b)

			sortWord(&res, obsStart)
			if detectOnly && res.Detected {
				return res
			}
		}
		scr.words += int64(to - prev)
	}
	return res
}

// coneWalkWord simulates one (fault, word) pair inside the seed net's
// precomputed fan-out cone: an O(1) excitation check first, then a
// topological sweep over only the cone's gates, reading good-machine
// values for everything outside the propagation region.
func (c *simCore) coneWalkWord(scr *simScratch, f netlist.Fault, res *Result,
	stuckWord uint64, seedNet netlist.NetID, detectOnly bool, w int) {

	mask := c.masks[w]
	st := c.gtStride
	capped := false

	// The faulty FF's own scan cell captures the stuck value regardless of
	// excitation (same as the full walk's seeding step).
	if f.Gate < 0 {
		if diff := (stuckWord ^ c.goodRespT[int(f.FF)*st+w]) & mask; diff != 0 {
			scr.record(res, int32(f.FF), detectOnly)
			capped = detectOnly
		}
	}

	// Seed value on the seed net.
	var v uint64
	if f.Gate >= 0 {
		if f.Pin >= 0 {
			v = c.evalGateForcedT(scr, w, f.Gate, int32(f.Pin), stuckWord)
		} else {
			v = stuckWord
		}
		// The seed gate's evaluation counts as an event either way, to
		// keep Stats.Events comparable with the full walk's seeding.
		scr.events++
	} else {
		v = stuckWord
	}
	if (v^c.goodT[int(seedNet)*st+w])&mask == 0 {
		return // not excited: nothing beyond the fault site can differ
	}
	scr.scratch[seedNet] = v
	scr.epoch[seedNet] = scr.curEp
	if c.fl.ObsHead[seedNet] >= 0 && c.observeNetT(scr, res, f, seedNet, v, mask, detectOnly, w) {
		capped = true
	}
	if capped {
		return
	}
	if !c.coneDownObs[seedNet] {
		return // no observation point reachable beyond the seed net
	}

	// Schedule the seed net's readers, then sweep the level-sorted cone.
	// schedEp marks membership in this word's frontier; pending counts
	// marked-but-unvisited gates so the sweep exits as soon as the effect
	// dies, without touching the rest of the cone.
	pending := 0
	for j := c.fl.RdrOff[seedNet]; j < c.fl.RdrOff[seedNet+1]; j++ {
		g := c.fl.Rdrs[j]
		if scr.schedEp[g] != scr.curEp {
			scr.schedEp[g] = scr.curEp
			pending++
		}
	}
	cone := c.coneGates[c.coneOff[seedNet]:c.coneOff[seedNet+1]]
	for idx := 0; idx < len(cone) && pending > 0; idx++ {
		gi := cone[idx]
		if scr.schedEp[gi] != scr.curEp {
			continue
		}
		pending--
		scr.events++
		v := c.evalGateAtT(scr, w, gi)
		out := c.fl.Out[gi]
		if (v^c.goodT[int(out)*st+w])&mask == 0 {
			continue // effect died here
		}
		scr.scratch[out] = v
		scr.epoch[out] = scr.curEp
		if c.fl.ObsHead[out] >= 0 && c.observeNetT(scr, res, f, out, v, mask, detectOnly, w) {
			return
		}
		for j := c.fl.RdrOff[out]; j < c.fl.RdrOff[out+1]; j++ {
			g := c.fl.Rdrs[j]
			if scr.schedEp[g] != scr.curEp {
				scr.schedEp[g] = scr.curEp
				pending++
			}
		}
	}
}

// fullWalkWord simulates one (fault, word) pair with the full-netlist
// level-ordered event walk — the reference path, used when cones are
// disabled (threshold <= 0) or the seed net's cone overflowed the
// threshold. Differential property P7 pins the cone walk against it.
func (c *simCore) fullWalkWord(scr *simScratch, f netlist.Fault, res *Result,
	stuckWord uint64, detectOnly bool, w int) {

	mask := c.masks[w]
	good := c.goodNets[w]
	for i := range scr.buckets {
		scr.buckets[i] = scr.buckets[i][:0]
	}

	// seed events at the fault site
	capped := false
	switch {
	case f.Gate >= 0:
		c.schedule(scr, f.Gate)
	case f.FF >= 0:
		q := c.N.FFs[f.FF].Q
		// the faulty FF's own scan cell captures the stuck value
		if diff := (stuckWord ^ c.goodResp[w][f.FF]) & mask; diff != 0 {
			scr.record(res, int32(f.FF), detectOnly)
			capped = detectOnly
		}
		if (stuckWord^good[q])&mask != 0 {
			scr.scratch[q] = stuckWord
			scr.epoch[q] = scr.curEp
			for j := c.fl.RdrOff[q]; j < c.fl.RdrOff[q+1]; j++ {
				c.schedule(scr, c.fl.Rdrs[j])
			}
			// q itself may be observed directly — as another FF's D net
			// or as a primary output — with no gate in between.
			if c.observeNet(scr, res, f, q, stuckWord, mask, detectOnly, w) {
				capped = true
			}
		}
	}

	// event-driven propagation in level order
	for lv := int32(0); lv <= c.fl.MaxLevel && !capped; lv++ {
		for bi := 0; bi < len(scr.buckets[lv]); bi++ {
			gi := scr.buckets[lv][bi]
			var v uint64
			scr.events++
			if f.Gate == gi && f.Pin >= 0 {
				v = c.evalGateForced(scr, good, gi, int32(f.Pin), stuckWord)
			} else {
				v = c.evalGateAt(scr, good, gi)
			}
			if f.Gate == gi && f.Pin < 0 {
				v = stuckWord
			}
			out := c.fl.Out[gi]
			if (v^good[out])&mask == 0 {
				continue // effect died here
			}
			scr.scratch[out] = v
			scr.epoch[out] = scr.curEp
			if c.fl.ObsHead[out] >= 0 && c.observeNet(scr, res, f, out, v, mask, detectOnly, w) {
				capped = true
				break
			}
			for j := c.fl.RdrOff[out]; j < c.fl.RdrOff[out+1]; j++ {
				c.schedule(scr, c.fl.Rdrs[j])
			}
		}
	}
}

// record notes a failing observation point: the fault is detected, and
// unless the run is detect-only, oi joins FailObs once per fault (the obs
// epoch dedups it across words and across a self-looped faulty FF's
// second report of its own scan bit).
func (scr *simScratch) record(res *Result, oi int32, detectOnly bool) {
	res.Detected = true
	if detectOnly {
		return
	}
	if scr.obsEp[oi] != scr.runEp {
		scr.obsEp[oi] = scr.runEp
		res.FailObs = append(res.FailObs, int(oi))
	}
}

// observeNet records every failing observation point sampling net — a
// net can be the D input of several FFs and a primary output
// simultaneously. Reports whether a detect-only run has detected the
// fault (propagation may then stop early).
func (c *simCore) observeNet(scr *simScratch, res *Result, f netlist.Fault,
	net netlist.NetID, faulty, mask uint64, detectOnly bool, w int) bool {

	goodResp := c.goodResp[w]
	for oi := c.fl.ObsHead[net]; oi >= 0; oi = c.fl.ObsNext[oi] {
		if f.Gate < 0 && oi == int32(f.FF) {
			// The faulty FF's own scan cell shifts out the stuck value no
			// matter what its D net carries (the capture is overridden by
			// the defect), so a fault effect looping back to its own D is
			// not a discrepancy there. The own bit is recorded at seeding.
			continue
		}
		if diff := (faulty ^ goodResp[oi]) & mask; diff != 0 {
			scr.record(res, oi, detectOnly)
		}
	}
	return detectOnly && res.Detected
}

// observeNetT is observeNet reading the transposed (obs-major) response
// image — the clipped path's variant.
func (c *simCore) observeNetT(scr *simScratch, res *Result, f netlist.Fault,
	net netlist.NetID, faulty, mask uint64, detectOnly bool, w int) bool {

	st := c.gtStride
	for oi := c.fl.ObsHead[net]; oi >= 0; oi = c.fl.ObsNext[oi] {
		if f.Gate < 0 && oi == int32(f.FF) {
			continue // own scan cell: recorded at seeding, see observeNet
		}
		if diff := (faulty ^ c.goodRespT[int(oi)*st+w]) & mask; diff != 0 {
			scr.record(res, oi, detectOnly)
		}
	}
	return detectOnly && res.Detected
}

// netValT reads one net's current value for word w: the faulty overlay if
// the net is inside the propagation region, the transposed good image
// otherwise. Small enough to inline into the evaluators below.
func (c *simCore) netValT(scr *simScratch, st, w int, in netlist.NetID) uint64 {
	if scr.epoch[in] == scr.curEp {
		return scr.scratch[in]
	}
	return c.goodT[int(in)*st+w]
}

// evalGateAtT / evalGateForcedT are the clipped path's gate evaluators,
// reading good-machine inputs from the transposed (net-major) image.
// The common arities (1-, 2-input, 3-input mux) are dispatched without
// building an input slice; anything else falls through to EvalWord.
func (c *simCore) evalGateAtT(scr *simScratch, w int, gi netlist.GateID) uint64 {
	st := c.gtStride
	lo := c.fl.PinOff[gi]
	k := c.fl.Kind[gi]
	switch c.fl.PinOff[gi+1] - lo {
	case 1:
		a := c.netValT(scr, st, w, c.fl.Pins[lo])
		switch k {
		case netlist.And, netlist.Or, netlist.Xor, netlist.Buf:
			return a
		case netlist.Nand, netlist.Nor, netlist.Xnor, netlist.Not:
			return ^a
		}
	case 2:
		a := c.netValT(scr, st, w, c.fl.Pins[lo])
		b := c.netValT(scr, st, w, c.fl.Pins[lo+1])
		switch k {
		case netlist.And:
			return a & b
		case netlist.Or:
			return a | b
		case netlist.Nand:
			return ^(a & b)
		case netlist.Nor:
			return ^(a | b)
		case netlist.Xor:
			return a ^ b
		case netlist.Xnor:
			return ^(a ^ b)
		}
	case 3:
		if k == netlist.Mux2 {
			sel := c.netValT(scr, st, w, c.fl.Pins[lo])
			a := c.netValT(scr, st, w, c.fl.Pins[lo+1])
			b := c.netValT(scr, st, w, c.fl.Pins[lo+2])
			return (a &^ sel) | (b & sel)
		}
	}
	var buf [8]uint64
	ins := buf[:0]
	for _, in := range c.fl.In(gi) {
		ins = append(ins, c.netValT(scr, st, w, in))
	}
	return netlist.EvalWord(k, ins)
}

func (c *simCore) evalGateForcedT(scr *simScratch, w int, gi netlist.GateID,
	pin int32, stuckWord uint64) uint64 {

	st := c.gtStride
	lo := c.fl.PinOff[gi]
	k := c.fl.Kind[gi]
	if c.fl.PinOff[gi+1]-lo == 2 {
		a := stuckWord
		b := stuckWord
		if pin == 0 {
			b = c.netValT(scr, st, w, c.fl.Pins[lo+1])
		} else {
			a = c.netValT(scr, st, w, c.fl.Pins[lo])
		}
		switch k {
		case netlist.And:
			return a & b
		case netlist.Or:
			return a | b
		case netlist.Nand:
			return ^(a & b)
		case netlist.Nor:
			return ^(a | b)
		case netlist.Xor:
			return a ^ b
		case netlist.Xnor:
			return ^(a ^ b)
		}
	}
	var buf [8]uint64
	ins := buf[:0]
	for _, in := range c.fl.In(gi) {
		ins = append(ins, c.netValT(scr, st, w, in))
	}
	ins[pin] = stuckWord
	return netlist.EvalWord(k, ins)
}

// evalGateAt evaluates one gate against the current overlay: inputs inside
// the propagation region read the faulty scratch value, everything else
// reads the precomputed good-machine image.
func (c *simCore) evalGateAt(scr *simScratch, good []uint64, gi netlist.GateID) uint64 {
	var buf [8]uint64
	ins := buf[:0]
	for _, in := range c.fl.In(gi) {
		if scr.epoch[in] == scr.curEp {
			ins = append(ins, scr.scratch[in])
		} else {
			ins = append(ins, good[in])
		}
	}
	return netlist.EvalWord(c.fl.Kind[gi], ins)
}

// evalGateForced is evalGateAt with one input pin forced to the stuck
// value — the seed evaluation of an input-pin fault.
func (c *simCore) evalGateForced(scr *simScratch, good []uint64, gi netlist.GateID,
	pin int32, stuckWord uint64) uint64 {

	var buf [8]uint64
	ins := buf[:0]
	for _, in := range c.fl.In(gi) {
		if scr.epoch[in] == scr.curEp {
			ins = append(ins, scr.scratch[in])
		} else {
			ins = append(ins, good[in])
		}
	}
	ins[pin] = stuckWord
	return netlist.EvalWord(c.fl.Kind[gi], ins)
}

// sortWord sorts the FailObs entries one pattern word appended to res
// into the documented order. Event discovery order is deterministic but
// not the contract — the cone and full walks may visit gates in different
// orders and still produce identical Results.
func sortWord(res *Result, obsStart int) {
	if obsSeg := res.FailObs[obsStart:]; len(obsSeg) > 1 {
		sort.Ints(obsSeg)
	}
}
