package uarch

import (
	"fmt"
	"math"
	"slices"

	"rescue/internal/bpred"
	"rescue/internal/cache"
	"rescue/internal/isa"
	"rescue/internal/workload"
)

const never = math.MaxInt64 / 4

// robState tracks an instruction's progress.
type robState uint8

const (
	inQueue robState = iota // dispatched, waiting in an issue queue
	issued                  // selected, executing
	done                    // result produced, awaiting commit
)

type robEntry struct {
	inst  isa.Inst
	seq   int64
	state robState

	// producer links with sequence guards: a ROB slot may be recycled, so
	// a link is live only while the slot still holds the same seq
	src1Rob, src2Rob int
	src1Seq, src2Seq int64
	resultReady      int64 // cycle the result is available to consumers
	issueCycle       int64
	doneCycle        int64
	dataPend         bool // store issued before its data producer; commit re-checks
	present          bool
}

// halfQueue is one issue-queue half: rob indices, oldest first.
type halfQueue struct {
	entries []int
	cap     int
}

// iq models one issue queue (int or fp). Baseline: a single logical list
// (half boundary ignored except capacity). Rescue: two halves plus the
// compaction buffer between them.
type iq struct {
	old, new halfQueue
	buf      []int
	bufCap   int
	rescue   bool
	reqPrev  bool // old half had space at end of last cycle (cycle-split)
	deadHalf [2]bool
}

func (q *iq) size() int { return len(q.old.entries) + len(q.new.entries) + len(q.buf) }

func (q *iq) hasSpace() bool {
	if q.rescue {
		if q.deadHalf[1] {
			// new half dead: insert directly into the old half (the paper's
			// bypass of the new half)
			return !q.deadHalf[0] && len(q.old.entries) < q.old.cap
		}
		return len(q.new.entries) < q.new.cap
	}
	return q.size() < q.old.cap+q.new.cap
}

func (q *iq) insert(rob int) {
	if q.rescue {
		if q.deadHalf[1] {
			q.old.entries = append(q.old.entries, rob)
			return
		}
		q.new.entries = append(q.new.entries, rob)
		return
	}
	// baseline compacting queue: single age-ordered list, stored in old
	// then new for capacity bookkeeping
	if len(q.old.entries) < q.old.cap {
		q.old.entries = append(q.old.entries, rob)
	} else {
		q.new.entries = append(q.new.entries, rob)
	}
}

// Stats accumulates simulation results.
type Stats struct {
	Cycles       int64
	Committed    int64
	Fetched      int64
	Mispredicts  int64
	Replays      int64 // Rescue over-selection replays (instructions)
	ReplayEvents int64
	MissSquashes int64 // instructions squashed by L1-miss shadow
	L1DMisses    int64
	L2Misses     int64
	BranchCount  int64
	BTBRedirects int64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Sim is one simulation instance.
type Sim struct {
	P     Params
	occ   Occupancy
	pred  *bpred.Predictor
	mem   *cache.Hierarchy
	gen   Source
	stats Stats

	rob                        []robEntry
	robHead, robTail, robCount int
	seq                        int64

	intQ, fpQ *iq

	// last in-flight writer of each architectural register (ROB index) or
	// -1; cleared when the instruction commits.
	producer [isa.NumRegs]int

	// frontend delay line: fetched instructions waiting to dispatch are
	// fline[flHead:]. Dispatch advances flHead; fetch slides the live
	// window back to the front when the buffer runs out of room, so the
	// line never reallocates.
	fline  []flineEntry
	flHead int

	// LSQ: rob indices of in-flight memory ops, oldest first
	lsq    []int
	lsqCap int

	fetchPC        uint64
	fetchStallTill int64
	// mispredicted-branch redirect state: fetch halts from the moment a
	// mispredicted branch is fetched (no wrong-path modeling, the standard
	// trace-driven approximation) until it resolves in execute.
	mispredInFlight bool
	waitBranch      int // ROB index of the unresolved mispredicted branch, -1
	now             int64

	// issue log for L1-miss shadow squashes: issuedAt[cycle % W]
	issueLog  [][]int
	replayAlt int // alternation for the ReplayAll ablation

	// pending L1-miss discoveries: loads whose consumers were woken
	// speculatively at hit latency; at fix time the shadow is squashed and
	// the true latency installed
	missFix []missEvent

	// pending completions, one per issue (see complete)
	doneQ doneHeap

	// active records whether the current cycle changed machine state;
	// stall is the dispatch-stall counter it bumped, if any. After an
	// inactive cycle Run fast-forwards (see skipIdle).
	active bool
	stall  *int64

	// selection and squash scratch, reused so the steady state never
	// allocates
	sel0, sel1, merged, squashed []int

	// reference selects the per-cycle loop with the scanning complete:
	// the model the fast path must reproduce, run in lockstep by tests.
	reference bool
	// onCommit, when set, sees every committed instruction (tests).
	onCommit func(cycle, seq int64)
}

// doneItem is a pending completion: ROB slot rob finishes at cycle.
type doneItem struct {
	cycle int64
	rob   int
}

// doneHeap is a binary min-heap of pending completions by cycle.
type doneHeap []doneItem

func (h *doneHeap) push(it doneItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].cycle <= q[i].cycle {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *doneHeap) pop() doneItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].cycle < q[c].cycle {
			c++
		}
		if q[i].cycle <= q[c].cycle {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

type missEvent struct {
	rob       int
	seq       int64
	fixCycle  int64
	trueReady int64
}

type flineEntry struct {
	inst    isa.Inst
	readyAt int64
	mispred bool
}

// Source produces the dynamic instruction stream a simulation consumes.
// workload.Gen implements it; trace.Reader replays recorded streams.
type Source interface {
	Next() isa.Inst
}

// New builds a simulator for one benchmark profile. Callers that run one
// profile many times compile it once and use NewFromSource with a fresh
// generator per run.
func New(p Params, prof workload.Profile) (*Sim, error) {
	return NewFromSource(p, workload.Compile(prof).Gen())
}

// NewFromSource builds a simulator over an arbitrary instruction source.
func NewFromSource(p Params, src Source) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Degr.Dead() {
		return nil, fmt.Errorf("uarch: configuration is dead: %v", p.Degr)
	}
	hc := cache.DefaultHierarchy()
	hc.MemLatency = int(float64(hc.MemLatency) * p.MemLatencyScale)
	s := &Sim{
		P:          p,
		pred:       bpred.New(bpred.Default()),
		mem:        cache.NewHierarchy(hc),
		gen:        src,
		rob:        make([]robEntry, p.ROBSize),
		fline:      make([]flineEntry, 0, (p.FrontendDepth+2)*p.Ways),
		lsqCap:     p.LSQSize - p.LSQSize/2*p.Degr.LSQHalvesDown,
		fetchPC:    0x1000,
		waitBranch: -1,
		sel0:       make([]int, 0, 2*p.IssueWidth),
		sel1:       make([]int, 0, p.IssueWidth),
		merged:     make([]int, 0, 2*p.IssueWidth),
	}
	if p.BTBFaultFrac > 0 {
		if err := s.pred.EnableSelfHeal(p.BTBFaultFrac, p.BTBSpares, 1); err != nil {
			return nil, err
		}
	}
	mkq := func(size, halvesDown int) *iq {
		q := &iq{rescue: p.Rescue, bufCap: p.CompBufSlots}
		half := size / 2
		if p.Rescue {
			q.old.cap = half
			q.new.cap = half - p.CompBufSlots
			if halvesDown > 0 {
				// one half disabled: paper allows either half to die; we
				// model the new half as the dead one (old compacts from
				// rename directly). Capacity = one half.
				q.deadHalf[1] = true
			}
		} else {
			// baseline: one age-ordered compacting list
			q.old.cap = size
			q.new.cap = 0
		}
		return q
	}
	s.intQ = mkq(p.IntIQSize, p.Degr.IntIQHalvesDown)
	s.fpQ = mkq(p.FPIQSize, p.Degr.FPIQHalvesDown)
	for i := range s.producer {
		s.producer[i] = -1
	}
	w := p.SquashWindow + 2
	s.issueLog = make([][]int, w)
	for i := range s.issueLog {
		s.issueLog[i] = []int{}
	}
	return s, nil
}

// Run simulates until `commit` instructions have committed (after `warmup`
// committed instructions of stats-free warmup) and returns the statistics.
func (s *Sim) Run(warmup, commit int64) Stats {
	target := warmup
	warm := true
	for {
		s.cycle()
		if warm && s.stats.Committed >= target {
			// reset stats, keep microarchitectural state
			s.stats = Stats{}
			warm = false
			target = commit
		}
		if !warm && s.stats.Committed >= target {
			return s.stats
		}
		if !s.active && !s.reference {
			s.skipIdle()
		}
		if s.now > never/2 {
			panic(wedgedPanic)
		}
	}
}

const wedgedPanic = "uarch: simulation wedged"

// cycle advances one clock: commit, complete, issue, queue maintenance,
// dispatch, fetch (reverse pipeline order so each stage sees last-cycle
// state of its upstream).
func (s *Sim) cycle() {
	s.now++
	s.stats.Cycles++
	s.occ.sample(s.intQ.size(), s.fpQ.size(), len(s.lsq), s.robCount)
	s.active, s.stall = false, nil
	s.commit()
	s.complete()
	s.issue()
	s.queueMaint()
	s.dispatch()
	s.fetch()
}

// skipIdle fast-forwards after a cycle that changed no state. The machine
// stays frozen until the first timestamp a stage compares now against
// comes due, so every cycle before that one would only sample the same
// occupancies (the peaks cannot move) and bump the same dispatch-stall
// counter: those are added in bulk and now jumps to the cycle before the
// event. A frozen machine with nothing pending can never move again.
func (s *Sim) skipIdle() {
	next := s.nextEvent()
	if next == never {
		panic(wedgedPanic)
	}
	k := next - 1 - s.now
	if k <= 0 {
		return
	}
	s.stats.Cycles += k
	s.occ.add(s.intQ.size(), s.fpQ.size(), len(s.lsq), s.robCount, k)
	if s.stall != nil {
		*s.stall += k
	}
	// the skipped cycles' issue-log slots would have been cleared
	for c := s.now + 1; c < next && c <= s.now+int64(len(s.issueLog)); c++ {
		s.issueLog[int(c)%len(s.issueLog)] = s.issueLog[int(c)%len(s.issueLog)][:0]
	}
	s.now = next - 1
}

// nextEvent returns the earliest cycle after now at which a frozen machine
// can move: the first not-yet-due timestamp that some stage compares now
// against. Those are a present ROB entry's doneCycle (complete, commit),
// resultReady (operand wakeup) and issueCycle+SquashWindow (issue-queue
// hold expiry), a pending miss fix-up, the frontend head's readyAt
// (dispatch) and fetchStallTill (fetch). Stale values only add spurious
// events, which cost a cycle of work but no accuracy. never means nothing
// is pending.
func (s *Sim) nextEvent() int64 {
	next := int64(never)
	at := func(c int64) {
		if c > s.now && c < next {
			next = c
		}
	}
	hold := int64(s.P.SquashWindow)
	for n, i := 0, s.robHead; n < s.robCount; n++ {
		e := &s.rob[i]
		at(e.doneCycle)
		at(e.resultReady)
		at(e.issueCycle + hold)
		if i++; i == len(s.rob) {
			i = 0
		}
	}
	for _, ev := range s.missFix {
		at(ev.fixCycle)
	}
	if s.flHead < len(s.fline) {
		at(s.fline[s.flHead].readyAt)
	}
	at(s.fetchStallTill)
	return next
}

// popFront drops q's first n elements in place, keeping its backing array
// (reslicing past the front would make later appends reallocate).
func popFront(q []int, n int) []int { return q[:copy(q, q[n:])] }

// ---- commit ----

func (s *Sim) commit() {
	for n := 0; n < s.P.CommitWidth; n++ {
		if s.robCount == 0 {
			return
		}
		e := &s.rob[s.robHead]
		if e.state != done || e.doneCycle > s.now {
			return
		}
		if e.dataPend && !s.srcReady(e.src2Rob, e.src2Seq) {
			return // store data not yet produced
		}
		// release LSQ slot
		if e.inst.Class.IsMem() {
			if len(s.lsq) > 0 && s.lsq[0] == s.robHead {
				s.lsq = popFront(s.lsq, 1)
			} else {
				// remove wherever it is (squash reordering)
				for i, r := range s.lsq {
					if r == s.robHead {
						s.lsq = append(s.lsq[:i], s.lsq[i+1:]...)
						break
					}
				}
			}
		}
		if d := e.inst.Dest; d != isa.RegNone && s.producer[d] == s.robHead {
			s.producer[d] = -1
		}
		if s.onCommit != nil {
			s.onCommit(s.now, e.seq)
		}
		e.present = false
		s.robHead = (s.robHead + 1) % len(s.rob)
		s.robCount--
		s.stats.Committed++
		s.active = true
	}
}

// ---- complete (writeback) ----

func (s *Sim) complete() {
	// resolution of the stalled mispredicted branch
	if s.waitBranch >= 0 {
		e := &s.rob[s.waitBranch]
		if e.present && e.state != inQueue && e.doneCycle <= s.now {
			// redirect: fetch resumes (refill then costs FrontendDepth)
			s.fetchStallTill = s.now
			s.waitBranch = -1
			s.mispredInFlight = false
			s.active = true
		}
	}
	// mark issued instructions whose execution finished
	if s.reference {
		// scan the whole window every cycle
		idx := s.robHead
		for n := 0; n < s.robCount; n++ {
			e := &s.rob[idx]
			if e.present && e.state == issued && e.doneCycle <= s.now {
				e.state = done
			}
			idx = (idx + 1) % len(s.rob)
		}
		return
	}
	// pop the completions due by now. Every issue pushes its doneCycle,
	// so each issued entry due now has an item here. An item whose slot
	// was since squashed, reissued or recycled is stale; the scan's own
	// predicate drops it, and marking a slot that satisfies the predicate
	// is what the scan would do this cycle anyway.
	for len(s.doneQ) > 0 && s.doneQ[0].cycle <= s.now {
		if e := &s.rob[s.doneQ.pop().rob]; e.present && e.state == issued && e.doneCycle <= s.now {
			e.state = done
			s.active = true
		}
	}
}

// ---- issue ----

// fuBudget tracks per-class functional-unit slots for one cycle.
type fuBudget struct {
	alu, muldiv, mem, fpadd, fpmul int
}

func (s *Sim) fullBudget() fuBudget {
	intGroups := s.P.intWays() / 2
	fpGroups := s.P.fpWays() / 2
	return fuBudget{
		alu:    s.P.intWays(),
		muldiv: intGroups,
		mem:    intGroups, // one memory port per int backend group
		fpadd:  fpGroups,
		fpmul:  fpGroups,
	}
}

func (b *fuBudget) take(c isa.Class) bool {
	switch c {
	case isa.IntALU, isa.Branch, isa.NOP:
		if b.alu > 0 {
			b.alu--
			return true
		}
	case isa.IntMul, isa.IntDiv:
		if b.muldiv > 0 {
			b.muldiv--
			return true
		}
	case isa.Load, isa.Store:
		if b.mem > 0 {
			b.mem--
			return true
		}
	case isa.FPAdd:
		if b.fpadd > 0 {
			b.fpadd--
			return true
		}
	case isa.FPMul, isa.FPDiv:
		if b.fpmul > 0 {
			b.fpmul--
			return true
		}
	}
	return false
}

// srcReady reports whether a guarded producer link has produced its value.
func (s *Sim) srcReady(p int, seq int64) bool {
	if p < 0 {
		return true
	}
	pe := &s.rob[p]
	if !pe.present || pe.seq != seq {
		return true // producer committed: value lives in the register file
	}
	return pe.resultReady <= s.now
}

// ready reports whether entry rob may be selected this cycle. Stores issue
// on address readiness alone (src1); their data (src2) is only needed by
// commit time, as in a real split store pipeline.
func (s *Sim) ready(rob int) bool {
	e := &s.rob[rob]
	if !s.srcReady(e.src1Rob, e.src1Seq) {
		return false
	}
	if e.inst.Class != isa.Store && !s.srcReady(e.src2Rob, e.src2Seq) {
		return false
	}
	if e.inst.Class == isa.Load {
		return s.loadMayIssue(rob)
	}
	return true
}

// loadMayIssue enforces memory disambiguation: every older store must have
// its address computed; a matching older store forwards.
func (s *Sim) loadMayIssue(rob int) bool {
	e := &s.rob[rob]
	for _, r := range s.lsq {
		if r == rob {
			break
		}
		se := &s.rob[r]
		if !se.present || se.inst.Class != isa.Store {
			continue
		}
		if se.seq >= e.seq {
			continue
		}
		if se.state == inQueue {
			return false // address unknown
		}
	}
	return true
}

// loadForwards reports whether an older store to the same address is still
// in flight (store-to-load forwarding, no cache access).
func (s *Sim) loadForwards(rob int) bool {
	e := &s.rob[rob]
	for _, r := range s.lsq {
		if r == rob {
			break
		}
		se := &s.rob[r]
		if se.present && se.inst.Class == isa.Store && se.seq < e.seq &&
			se.inst.Addr/8 == e.inst.Addr/8 {
			return true
		}
	}
	return false
}

// selectHalf appends to dst the ready instructions of one half, oldest
// first, up to width and the FU budget, and returns it.
func (s *Sim) selectHalf(dst []int, h *halfQueue, width int, budget *fuBudget) []int {
	for _, rob := range h.entries {
		if len(dst) >= width {
			break
		}
		e := &s.rob[rob]
		if e.state != inQueue || !s.ready(rob) {
			continue
		}
		if !budget.take(e.inst.Class) {
			continue
		}
		dst = append(dst, rob)
	}
	return dst
}

// takeAll charges every selected instruction to b, stopping at the first
// one it cannot fit.
func (b *fuBudget) takeAll(s *Sim, sel []int) bool {
	for _, rob := range sel {
		if !b.take(s.rob[rob].inst.Class) {
			return false
		}
	}
	return true
}

func (s *Sim) issue() {
	// rotate the issue log: clear this cycle's slot (stale from len cycles
	// ago) before issueOne appends to it
	s.issueLog[int(s.now)%len(s.issueLog)] = s.issueLog[int(s.now)%len(s.issueLog)][:0]
	// process L1-miss discoveries due this cycle, before selection
	if len(s.missFix) > 0 {
		kept := s.missFix[:0]
		for _, ev := range s.missFix {
			e := &s.rob[ev.rob]
			if !e.present || e.seq != ev.seq {
				continue // load squashed/committed meanwhile
			}
			if ev.fixCycle > s.now {
				kept = append(kept, ev)
				continue
			}
			// trueReady is the doneCycle issueOne installed, so the
			// load's pending completion stays valid
			e.resultReady = ev.trueReady
			e.doneCycle = ev.trueReady
			s.squashShadow(ev.rob)
			s.active = true
		}
		s.missFix = kept
	}
	s.issueQueue(s.intQ, s.P.intWays())
	s.issueQueue(s.fpQ, s.P.fpWays())
}

func (s *Sim) issueQueue(q *iq, ways int) {
	if ways <= 0 {
		return
	}
	width := s.P.IssueWidth
	if ways < width {
		width = ways
	}
	var toIssue []int
	if !s.P.Rescue {
		// baseline: global age-ordered selection across the whole queue
		budget := s.fullBudget()
		toIssue = s.selectHalf(s.sel0[:0], &q.old, width, &budget)
	} else {
		// Rescue: each half selects independently under full constraints
		b0, b1 := s.fullBudget(), s.fullBudget()
		sel0, sel1 := s.sel0[:0], s.sel1[:0]
		if !q.deadHalf[0] {
			sel0 = s.selectHalf(sel0, &q.old, width, &b0)
		}
		if !q.deadHalf[1] {
			sel1 = s.selectHalf(sel1, &q.new, width, &b1)
		}
		over := len(sel0)+len(sel1) > width
		if !over {
			// combined FU check: re-run a shared budget over the union in
			// age order; overflow there also triggers replay
			budget := s.fullBudget()
			over = !budget.takeAll(s, sel0) || !budget.takeAll(s, sel1)
		}
		if over {
			s.active = true // replay bookkeeping below
		}
		switch {
		case !over:
			toIssue = append(sel0, sel1...)
		case s.P.ReplayPolicy == OracleCombine:
			budget := s.fullBudget()
			merged := s.mergeByAge(sel0, sel1)
			toIssue = merged[:0] // filtered in place
			for _, rob := range merged {
				if len(toIssue) >= width {
					break
				}
				if budget.take(s.rob[rob].inst.Class) {
					toIssue = append(toIssue, rob)
				}
			}
			s.stats.ReplayEvents++
		case s.P.ReplayPolicy == ReplayAll:
			s.stats.ReplayEvents++
			s.stats.Replays += int64(len(sel0) + len(sel1))
			// livelock breaker: next cycle only one half selects; model by
			// issuing nothing now and alternating a forced single half
			if s.replayAlt%2 == 0 {
				toIssue = sel0
				s.stats.Replays -= int64(len(sel0))
			} else {
				toIssue = sel1
				s.stats.Replays -= int64(len(sel1))
			}
			s.replayAlt++
		default: // ReplaySmallerHalf (the paper's policy)
			s.stats.ReplayEvents++
			if len(sel0) >= len(sel1) {
				toIssue = sel0
				s.stats.Replays += int64(len(sel1))
			} else {
				toIssue = sel1
				s.stats.Replays += int64(len(sel0))
			}
		}
	}
	for _, rob := range toIssue {
		s.issueOne(rob)
	}
}

// mergeByAge returns a and b merged oldest first, in the merge scratch.
func (s *Sim) mergeByAge(a, b []int) []int {
	out := append(append(s.merged[:0], a...), b...)
	// insertion sort by seq (tiny slices)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && s.rob[out[j]].seq < s.rob[out[j-1]].seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *Sim) issueOne(rob int) {
	e := &s.rob[rob]
	e.state = issued
	e.issueCycle = s.now
	lat := e.inst.Class.Latency()
	missDone := int64(-1)
	switch e.inst.Class {
	case isa.Load:
		if s.loadForwards(rob) {
			lat += 1 // store-to-load forward
			e.resultReady = s.now + int64(lat)
		} else {
			l, l1hit := s.mem.LoadLatency(e.inst.Addr)
			specReady := s.now + int64(lat+s.mem.L1D.Latency())
			if l1hit {
				e.resultReady = specReady
			} else {
				// load-hit speculation: consumers wake at hit timing; the
				// miss is discovered after the squash window, dependents
				// issued in the shadow are squashed, and the true latency
				// installed (Section 5 item 4: Rescue's extra shift stage
				// squashes one extra cycle)
				s.stats.L1DMisses++
				e.resultReady = specReady
				missDone = s.now + int64(lat+l)
				s.missFix = append(s.missFix, missEvent{
					rob:       rob,
					seq:       e.seq,
					fixCycle:  specReady + int64(s.P.SquashWindow),
					trueReady: missDone,
				})
			}
		}
	case isa.Store:
		// address generation; data only needed at commit — the store's
		// doneCycle stretches to cover the data producer below
		e.resultReady = s.now + int64(lat)
		if !s.srcReady(e.src2Rob, e.src2Seq) {
			pe := &s.rob[e.src2Rob]
			if pe.resultReady < never && pe.resultReady > e.resultReady {
				e.resultReady = pe.resultReady
			} else if pe.resultReady >= never {
				// data producer not even issued: retire the store's done
				// check to commit time via a conservative re-check there
				e.resultReady = s.now + int64(lat)
				e.dataPend = true
			}
		}
	case isa.Branch:
		e.resultReady = s.now + int64(lat)
	default:
		e.resultReady = s.now + int64(lat)
	}
	e.doneCycle = e.resultReady
	if missDone >= 0 {
		e.doneCycle = missDone // a missing load retires at its true latency
	}
	if !s.reference {
		s.doneQ.push(doneItem{cycle: e.doneCycle, rob: rob})
	}
	s.active = true
	s.issueLog[int(s.now)%len(s.issueLog)] = append(s.issueLog[int(s.now)%len(s.issueLog)], rob)
}

// squashShadow implements the L1-miss shadow: instructions issued in the
// last SquashWindow cycles that (transitively) consumed the missing load's
// speculatively-broadcast result return to their queues (the Rescue design
// holds entries an extra cycle and squashes an extra cycle — Section 5
// item 4).
func (s *Sim) squashShadow(loadRob int) {
	squashed := append(s.squashed[:0], loadRob)
	for back := s.P.SquashWindow; back >= 0; back-- {
		c := s.now - int64(back)
		if c < 0 {
			continue
		}
		lst := s.issueLog[int(c)%len(s.issueLog)]
		for _, rob := range lst {
			e := &s.rob[rob]
			if !e.present || e.state != issued || e.issueCycle != c || rob == loadRob {
				continue
			}
			if e.inst.Class.IsMem() || e.inst.Class == isa.Branch {
				continue // memory ops and branches are not replayed
			}
			if !s.consumes(squashed, e.src1Rob, e.src1Seq) && !s.consumes(squashed, e.src2Rob, e.src2Seq) {
				continue
			}
			squashed = append(squashed, rob)
			e.state = inQueue
			e.resultReady = never
			s.stats.MissSquashes++
		}
	}
	s.squashed = squashed
}

// consumes reports whether a guarded producer link names a live
// instruction in set.
func (s *Sim) consumes(set []int, p int, seq int64) bool {
	return p >= 0 && slices.Contains(set, p) && s.rob[p].present && s.rob[p].seq == seq
}

// ---- queue maintenance (Rescue segmented compaction) ----

func (s *Sim) queueMaint() {
	s.cleanQueue(s.intQ)
	s.cleanQueue(s.fpQ)
	if s.P.Rescue {
		s.compact(s.intQ)
		s.compact(s.fpQ)
	}
}

// cleanQueue removes issued entries whose hold window has elapsed.
func (s *Sim) cleanQueue(q *iq) {
	hold := int64(s.P.SquashWindow)
	rm := func(h *halfQueue) {
		out := h.entries[:0]
		for _, rob := range h.entries {
			e := &s.rob[rob]
			if e.present && e.state != inQueue && s.now-e.issueCycle >= hold {
				continue // entry leaves the queue
			}
			if !e.present {
				continue
			}
			out = append(out, rob)
		}
		h.entries = out
	}
	n := q.size()
	rm(&q.old)
	rm(&q.new)
	outb := q.buf[:0]
	for _, rob := range q.buf {
		if s.rob[rob].present {
			outb = append(outb, rob)
		}
	}
	q.buf = outb
	if q.size() != n {
		s.active = true
	}
}

// compact performs the cycle-split inter-segment movement: buffer contents
// drop into the old half; then, if the old half had space last cycle (the
// latched request), the new half's oldest entries move into the buffer.
func (s *Sim) compact(q *iq) {
	if q.deadHalf[1] || q.deadHalf[0] {
		return // single-half operation: no inter-segment traffic
	}
	// buffer -> old
	n := min(len(q.buf), q.old.cap-len(q.old.entries))
	if n > 0 {
		q.old.entries = append(q.old.entries, q.buf[:n]...)
		q.buf = popFront(q.buf, n)
		s.active = true
	}
	// new -> buffer (only if old requested last cycle; the request is a
	// latched, cycle-old view — the ICI cycle split)
	if q.reqPrev {
		n := 0
		for len(q.buf)+n < q.bufCap && n < len(q.new.entries) {
			// only move entries that are still waiting (issued ones must
			// stay put for their hold window)
			if s.rob[q.new.entries[n]].state != inQueue {
				break
			}
			n++
		}
		if n > 0 {
			q.buf = append(q.buf, q.new.entries[:n]...)
			q.new.entries = popFront(q.new.entries, n)
			s.active = true
		}
	}
	// the request only flips in a cycle that moved or removed an old-half
	// entry, which is already active
	q.reqPrev = len(q.old.entries) < q.old.cap
}

// ---- dispatch ----

func (s *Sim) dispatch() {
	width := s.P.feWidth()
	for n := 0; n < width; n++ {
		if s.flHead == len(s.fline) {
			return
		}
		f := &s.fline[s.flHead]
		if f.readyAt > s.now {
			return
		}
		if s.robCount >= len(s.rob) {
			s.occ.DispatchStallROB++
			s.stall = &s.occ.DispatchStallROB
			return
		}
		inst := f.inst
		var q *iq
		switch {
		case inst.Class.IsMem():
			q = s.intQ // memory ops issue from the int queue (AGU)
			if len(s.lsq) >= s.lsqCap {
				s.occ.DispatchStallLSQ++
				s.stall = &s.occ.DispatchStallLSQ
				return
			}
		case inst.Class.IsFP():
			q = s.fpQ
		default:
			q = s.intQ
		}
		if !q.hasSpace() {
			s.occ.DispatchStallIQ++
			s.stall = &s.occ.DispatchStallIQ
			return
		}
		// allocate ROB
		rob := s.robTail
		s.robTail = (s.robTail + 1) % len(s.rob)
		s.robCount++
		s.seq++
		e := &s.rob[rob]
		*e = robEntry{inst: inst, seq: s.seq, state: inQueue,
			resultReady: never, present: true, src1Rob: -1, src2Rob: -1}
		if inst.Src1 != isa.RegNone {
			if p := s.producer[inst.Src1]; p >= 0 && s.rob[p].present {
				e.src1Rob, e.src1Seq = p, s.rob[p].seq
			}
		}
		if inst.Src2 != isa.RegNone {
			if p := s.producer[inst.Src2]; p >= 0 && s.rob[p].present {
				e.src2Rob, e.src2Seq = p, s.rob[p].seq
			}
		}
		if inst.Dest != isa.RegNone {
			s.producer[inst.Dest] = rob
		}
		if inst.Class.IsMem() {
			s.lsq = append(s.lsq, rob)
		}
		if f.mispred {
			s.waitBranch = rob
		}
		q.insert(rob)
		s.flHead++
		s.active = true
	}
}

// ---- fetch ----

func (s *Sim) fetch() {
	if s.mispredInFlight || s.now < s.fetchStallTill {
		return
	}
	if len(s.fline)-s.flHead > s.P.FrontendDepth*s.P.Ways {
		return // frontend back-pressure
	}
	width := s.P.feWidth()
	if cap(s.fline)-len(s.fline) < width {
		s.fline = s.fline[:copy(s.fline, s.fline[s.flHead:])]
		s.flHead = 0
	}
	s.active = true
	// i-cache access for this fetch group
	ilat := s.mem.FetchLatency(s.fetchPC)
	extra := int64(0)
	if ilat > 2 {
		// fetch stalls for the miss duration
		s.fetchStallTill = s.now + int64(ilat)
		extra = int64(ilat)
	}
	for n := 0; n < width; n++ {
		inst := s.gen.Next()
		inst.PC = s.fetchPC
		s.stats.Fetched++
		fe := flineEntry{inst: inst, readyAt: s.now + int64(s.P.FrontendDepth) + extra}
		btbRedirect := false
		if inst.Class == isa.Branch {
			s.stats.BranchCount++
			predTaken := s.pred.PredictDirection(inst.PC)
			tgt, btbHit := s.pred.PredictTarget(inst.PC)
			// train at fetch: updates are in program order (no wrong path
			// is modeled), keeping the global history exact and predictor
			// accuracy independent of pipeline depth — the standard
			// trace-driven approximation
			s.pred.Update(inst.PC, inst.Taken, inst.Target)
			if predTaken != inst.Taken {
				// direction mispredict: full penalty, resolved at execute
				fe.mispred = true
				s.stats.Mispredicts++
			} else if inst.Taken && (!btbHit || tgt != inst.Target) {
				// correct direction, wrong/missing target: the target is
				// recomputed in decode — a short frontend redirect bubble
				btbRedirect = true
				s.stats.BTBRedirects++
			}
		}
		s.fline = append(s.fline, fe)
		s.fetchPC = inst.NextPC()
		if fe.mispred {
			s.mispredInFlight = true // fetch halts until resolution
			return
		}
		if btbRedirect {
			s.fetchStallTill = s.now + 3
			return
		}
		if inst.Class == isa.Branch && inst.Taken {
			return // fetch stops at a taken branch
		}
	}
}
