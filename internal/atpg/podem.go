package atpg

import (
	"math"
	"slices"

	"rescue/internal/netlist"
)

// searcher is one goroutine's PODEM working state over a netlist. It is
// built once per worker and reused for every fault the worker searches:
// reset clears only the PI decisions and both planes, and every other
// buffer keeps its capacity from fault to fault.
//
// Implication is event-driven. The good and faulty planes are a pure
// function of the PI assignment, so imply only re-evaluates the fan-out of
// PIs whose assignment changed since its last call — a new decision, a
// backtrack flip, or a popped decision reset to X — through a
// level-bucketed queue that stops wherever both planes are unchanged.
// Even the starting state needs no full pass: with every PI at X, only tie
// cells and the fault site can drive a non-X value, so the search starts
// from all-X planes with just those gates queued. implyFull, the
// full-netlist pass, is the reference the lockstep test holds imply to.
//
// Implication is also confined to the fault's region: the fan-in closure,
// back to PIs and scan cells, of the forward cone and of an FF-output
// fault's D driver. Every net the search reads — the activation line, the
// faulty gate's side inputs, the D-frontier and the X-path through the
// cone, an FF fault's D net, every net backtrace walks — is driven from
// inside it, so gates outside are never queued and their nets stay X.
type searcher struct {
	n     *netlist.Netlist
	fl    netlist.Flat // n's compiled form, held by value
	fault netlist.Fault

	// pis lists the controllable points: primary inputs then FF Q nets.
	pis []netlist.NetID
	// piIndex maps net -> index in pis, or -1.
	piIndex []int32
	// consts lists the tie cells, queued at every reset.
	consts []netlist.GateID
	// assign holds the current PI decisions (X = unassigned).
	assign []V3
	// changed lists PI indices assigned since the last imply.
	changed []int
	// decisions is search's decision stack.
	decisions []decision

	good, bad []V3 // per-net planes

	// The event queue, over fl's levels and readers. Every imply drains
	// it, so it is empty between searches.
	buckets [][]netlist.GateID // gates pending re-evaluation, by level
	queued  []bool             // per gate: already in a bucket

	// cone is the fault's forward cone in gate-ID order: the only gates
	// whose output can differ between the planes. Gate-ID order keeps the
	// D-frontier order, and so objective's choice, fixed. coneObs lists
	// the observed nets that can carry an error: cone gate outputs, plus
	// an FF-output fault's own Q.
	cone     []netlist.GateID
	coneObs  []netlist.NetID
	frontier []netlist.GateID // dFrontier's reused result buffer
	seen     []int32          // visit marks (== seenEp) for the cone and xPathExists walks
	seenEp   int32
	stack    []netlist.GateID
	// region marks (== regionEp) the fault's region, the only gates
	// schedule queues.
	region   []int32
	regionEp int32

	// Test hooks: afterReset, when set, runs between reset and the search;
	// afterImply after every imply.
	afterReset, afterImply func()

	backtracks    int
	maxBacktracks int
}

// Cube is a generated test cube: per-PI three-valued assignments (primary
// inputs first, then FF scan cells, matching searcher.pis order).
type Cube struct {
	PI []V3 // len = len(netlist.Inputs)
	FF []V3 // len = NumFFs
}

// PodemResult classifies a PODEM run.
type PodemResult int

// PODEM outcomes.
const (
	Detected PodemResult = iota
	Untestable
	Aborted
)

func (r PodemResult) String() string {
	switch r {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// Podem attempts to generate a test for fault f on n. maxBacktracks bounds
// the search (typical production values are 10-100). It is the one-shot
// form of a searcher; GenerateFlow keeps one searcher per worker instead.
func Podem(n *netlist.Netlist, f netlist.Fault, maxBacktracks int) (Cube, PodemResult) {
	return newSearcher(n, maxBacktracks).run(f)
}

// newSearcher builds the per-netlist state a worker reuses for every fault.
func newSearcher(n *netlist.Netlist, maxBacktracks int) *searcher {
	p := &searcher{n: n, fl: *n.Flat(), maxBacktracks: maxBacktracks}
	nNets, nGates := n.NumNets(), n.NumGates()
	p.pis = make([]netlist.NetID, 0, len(n.Inputs)+n.NumFFs())
	p.pis = append(p.pis, n.Inputs...)
	for i := range n.FFs {
		p.pis = append(p.pis, n.FFs[i].Q)
	}
	p.piIndex = make([]int32, nNets)
	for i := range p.piIndex {
		p.piIndex[i] = -1
	}
	for i, net := range p.pis {
		p.piIndex[net] = int32(i)
	}
	for gi, k := range p.fl.Kind {
		if k == netlist.Const0 || k == netlist.Const1 {
			p.consts = append(p.consts, netlist.GateID(gi))
		}
	}
	p.assign = make([]V3, len(p.pis))
	p.good = make([]V3, nNets)
	p.bad = make([]V3, nNets)
	p.buckets = make([][]netlist.GateID, p.fl.MaxLevel+1)
	p.queued = make([]bool, nGates)
	p.seen = make([]int32, nGates)
	p.region = make([]int32, nGates)
	return p
}

// run searches for a test for f: the cube and verdict Podem returns.
func (p *searcher) run(f netlist.Fault) (Cube, PodemResult) {
	p.reset(f)
	if p.afterReset != nil {
		p.afterReset()
	}
	ok, aborted := p.search()
	switch {
	case ok:
		nIn := len(p.n.Inputs)
		return Cube{PI: slices.Clone(p.assign[:nIn]), FF: slices.Clone(p.assign[nIn:])}, Detected
	case aborted:
		return Cube{}, Aborted
	default:
		return Cube{}, Untestable
	}
}

// reset readies the searcher for fault f: no decisions, all-X planes, the
// fault's cone and region, and the region gates that drive a value even
// then queued, so the first imply yields the full-pass state on the region.
func (p *searcher) reset(f netlist.Fault) {
	p.fault = f
	p.backtracks = 0
	p.changed = p.changed[:0]
	clear(p.assign)
	clear(p.good)
	clear(p.bad)
	p.buildCone()
	p.markRegion()
	for _, g := range p.consts {
		p.schedule(g)
	}
	if f.Gate >= 0 {
		p.schedule(f.Gate)
	} else if q, ok := p.forcedQ(); ok {
		p.bad[q] = saVal(f.StuckAt1)
		p.scheduleReaders(q)
	}
}

// buildCone collects the fault's forward cone in gate-ID order: the gates
// structurally reachable within one cycle from the fault's gate, or from
// the readers of an FF-output fault's Q. It also lists the observed nets
// the cone drives.
func (p *searcher) buildCone() {
	ep := nextEpoch(p.seen, &p.seenEp)
	p.cone = p.cone[:0]
	p.stack = p.stack[:0]
	if q, ok := p.forcedQ(); ok {
		p.stack = append(p.stack, p.fl.Rdrs[p.fl.RdrOff[q]:p.fl.RdrOff[q+1]]...)
	} else if p.fault.Gate >= 0 {
		p.stack = append(p.stack, p.fault.Gate)
	}
	for len(p.stack) > 0 {
		g := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if p.seen[g] == ep {
			continue
		}
		p.seen[g] = ep
		p.cone = append(p.cone, g)
		out := p.fl.Out[g]
		p.stack = append(p.stack, p.fl.Rdrs[p.fl.RdrOff[out]:p.fl.RdrOff[out+1]]...)
	}
	slices.Sort(p.cone)
	p.coneObs = p.coneObs[:0]
	for _, gi := range p.cone {
		if out := p.fl.Out[gi]; p.fl.ObsHead[out] >= 0 {
			p.coneObs = append(p.coneObs, out)
		}
	}
	if q, ok := p.forcedQ(); ok && p.fl.ObsHead[q] >= 0 {
		p.coneObs = append(p.coneObs, q)
	}
}

// markRegion marks the fault's region: the fan-in closure of the cone and
// of an FF-output fault's D driver, walked back to PIs and scan cells.
func (p *searcher) markRegion() {
	ep := nextEpoch(p.region, &p.regionEp)
	p.stack = append(p.stack[:0], p.cone...)
	if p.fault.Gate < 0 && p.fault.FF >= 0 {
		if drv := p.n.DriverGate(p.n.FFs[p.fault.FF].D); drv >= 0 {
			p.stack = append(p.stack, drv)
		}
	}
	for _, g := range p.stack {
		p.region[g] = ep
	}
	for len(p.stack) > 0 {
		g := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		for _, in := range p.fl.In(g) {
			if d := p.n.DriverGate(in); d >= 0 && p.region[d] != ep {
				p.region[d] = ep
				p.stack = append(p.stack, d)
			}
		}
	}
}

// nextEpoch starts a new epoch of a mark array, clearing the marks on the
// rare wrap of the counter.
func nextEpoch(marks []int32, ep *int32) int32 {
	if *ep == math.MaxInt32 {
		clear(marks)
		*ep = 0
	}
	*ep++
	return *ep
}

type decision struct {
	pi        int
	value     V3
	triedBoth bool
}

// setPI records a PI decision for the next imply.
func (p *searcher) setPI(pi int, v V3) {
	p.assign[pi] = v
	p.changed = append(p.changed, pi)
}

// search runs the PODEM decision loop. Returns (found, aborted).
func (p *searcher) search() (bool, bool) {
	stack := p.decisions[:0]
	defer func() { p.decisions = stack }()
	for {
		p.imply()
		if p.afterImply != nil {
			p.afterImply()
		}
		if p.errorAtOutput() {
			return true, false
		}
		feasible := p.feasible()
		if feasible {
			net, val, ok := p.objective()
			if ok {
				pi, pv := p.backtrace(net, val)
				if pi >= 0 {
					stack = append(stack, decision{pi: pi, value: pv})
					p.setPI(pi, pv)
					continue
				}
			}
			// no objective or backtrace dead-ends: treat as infeasible
		}
		// backtrack
		flipped := false
		for len(stack) > 0 {
			d := &stack[len(stack)-1]
			if !d.triedBoth {
				d.triedBoth = true
				d.value = not3(d.value)
				p.setPI(d.pi, d.value)
				p.backtracks++
				flipped = true
				break
			}
			p.setPI(d.pi, X)
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			return false, false // exhausted: untestable
		}
		if p.backtracks > p.maxBacktracks {
			return false, true
		}
	}
}

// implyFull performs full forward 5-valued implication from the current PI
// assignments into the given planes — the reference imply must match.
func (p *searcher) implyFull(good, bad []V3) {
	for i := range good {
		good[i] = X
		bad[i] = X
	}
	for i, net := range p.pis {
		good[net] = p.assign[i]
		bad[net] = p.assign[i]
	}
	// FF-output fault: faulty plane of Q is forced
	if q, ok := p.forcedQ(); ok {
		bad[q] = saVal(p.fault.StuckAt1)
	}
	for _, gi := range p.fl.Order {
		out := p.fl.Out[gi]
		good[out], bad[out] = p.eval(gi, good, bad)
	}
}

// forcedQ returns the Q net of an FF-output fault, whose faulty-plane
// value is pinned to the stuck value.
func (p *searcher) forcedQ() (netlist.NetID, bool) {
	if p.fault.Gate < 0 && p.fault.FF >= 0 {
		return p.n.FFs[p.fault.FF].Q, true
	}
	return netlist.InvalidNet, false
}

// imply brings both planes up to date with the PI assignments changed
// since the last call, re-evaluating only their fan-out in level order.
func (p *searcher) imply() {
	q, forced := p.forcedQ()
	for _, i := range p.changed {
		net := p.pis[i]
		gv, bv := p.assign[i], p.assign[i]
		if forced && net == q {
			bv = p.bad[net]
		}
		if gv == p.good[net] && bv == p.bad[net] {
			continue
		}
		p.good[net] = gv
		p.bad[net] = bv
		p.scheduleReaders(net)
	}
	p.changed = p.changed[:0]
	for lv := range p.buckets {
		for _, gi := range p.buckets[lv] {
			p.queued[gi] = false
			gv, bv := p.eval(gi, p.good, p.bad)
			out := p.fl.Out[gi]
			if gv == p.good[out] && bv == p.bad[out] {
				continue
			}
			p.good[out] = gv
			p.bad[out] = bv
			p.scheduleReaders(out)
		}
		p.buckets[lv] = p.buckets[lv][:0]
	}
}

// scheduleReaders queues every gate reading net for re-evaluation. Readers
// sit at strictly higher levels, so they land in buckets not yet drained.
func (p *searcher) scheduleReaders(net netlist.NetID) {
	for _, r := range p.fl.Rdrs[p.fl.RdrOff[net]:p.fl.RdrOff[net+1]] {
		p.schedule(r)
	}
}

// schedule queues one region gate for re-evaluation by the next imply;
// gates outside the fault's region are never evaluated.
func (p *searcher) schedule(g netlist.GateID) {
	if !p.queued[g] && p.region[g] == p.regionEp {
		p.queued[g] = true
		p.buckets[p.fl.Level[g]] = append(p.buckets[p.fl.Level[g]], g)
	}
}

func saVal(sa1 bool) V3 {
	if sa1 {
		return One
	}
	return Zero
}

// eval evaluates gate gi in the given good and faulty planes from one
// fetch of its kind and pins, injecting the fault into the faulty plane
// when it sits on gi.
func (p *searcher) eval(gi netlist.GateID, good, bad []V3) (V3, V3) {
	var gbuf, bbuf [8]V3
	gin, bin := gbuf[:0], bbuf[:0]
	for _, in := range p.fl.In(gi) {
		gin = append(gin, good[in])
		bin = append(bin, bad[in])
	}
	f := p.fault
	if f.Gate == gi && f.Pin >= 0 {
		bin[f.Pin] = saVal(f.StuckAt1)
	}
	gv, bv := eval3(p.fl.Kind[gi], gin, bin)
	if f.Gate == gi && f.Pin < 0 {
		bv = saVal(f.StuckAt1)
	}
	return gv, bv
}

// eval3 evaluates a gate of kind k over its input values in both planes
// (g and b, in pin order) with one dispatch on the kind.
func eval3(k netlist.GateKind, g, b []V3) (V3, V3) {
	switch k {
	case netlist.And, netlist.Nand:
		gv, bv := One, One
		for i := range g {
			gv, bv = and3(gv, g[i]), and3(bv, b[i])
		}
		if k == netlist.Nand {
			return not3(gv), not3(bv)
		}
		return gv, bv
	case netlist.Or, netlist.Nor:
		gv, bv := Zero, Zero
		for i := range g {
			gv, bv = or3(gv, g[i]), or3(bv, b[i])
		}
		if k == netlist.Nor {
			return not3(gv), not3(bv)
		}
		return gv, bv
	case netlist.Xor, netlist.Xnor:
		gv, bv := Zero, Zero
		for i := range g {
			gv, bv = xor3(gv, g[i]), xor3(bv, b[i])
		}
		if k == netlist.Xnor {
			return not3(gv), not3(bv)
		}
		return gv, bv
	case netlist.Not:
		return not3(g[0]), not3(b[0])
	case netlist.Buf:
		return g[0], b[0]
	case netlist.Mux2:
		return mux3(g[0], g[1], g[2]), mux3(b[0], b[1], b[2])
	case netlist.Const0:
		return Zero, Zero
	case netlist.Const1:
		return One, One
	}
	return X, X
}

// isError reports whether net carries D or D'.
func (p *searcher) isError(net netlist.NetID) bool {
	g, b := p.good[net], p.bad[net]
	return g != X && b != X && g != b
}

func (p *searcher) errorAtOutput() bool {
	for _, net := range p.coneObs {
		if p.isError(net) {
			return true
		}
	}
	// FF-output faults are observed directly on scan-out of the faulty cell
	if p.fault.Gate < 0 && p.fault.FF >= 0 {
		d := p.n.FFs[p.fault.FF].D
		if p.good[d] != X && p.good[d] != saVal(p.fault.StuckAt1) {
			return true
		}
	}
	return false
}

// siteLine returns the net whose good value activates the fault.
func (p *searcher) siteLine() netlist.NetID {
	f := p.fault
	switch {
	case f.Gate >= 0 && f.Pin >= 0:
		return p.fl.In(f.Gate)[f.Pin]
	case f.Gate >= 0:
		return p.fl.Out[f.Gate]
	default:
		return p.n.FFs[f.FF].D // activation for FF faults: capture opposite value
	}
}

// feasible checks whether the current partial assignment can still lead to
// detection: the fault can still be activated, and if activated, an X-path
// exists from the D-frontier to an observation point.
func (p *searcher) feasible() bool {
	f := p.fault
	// activation still possible?
	line := p.siteLine()
	want := not3(saVal(f.StuckAt1))
	if f.Gate >= 0 && f.Pin >= 0 {
		if p.good[line] != X && p.good[line] != want {
			return false
		}
	} else if f.Gate >= 0 {
		if p.good[line] != X && p.good[line] != want {
			return false
		}
	} else {
		// FF fault: D capture or combinational propagation from Q
		dNet := p.n.FFs[f.FF].D
		if p.good[dNet] != X && p.good[dNet] != want {
			// direct capture observation blocked; combinational path from Q
			// may still work — fall through to frontier check
			if p.good[p.n.FFs[f.FF].Q] == X {
				return true // not yet activated at Q
			}
			if len(p.dFrontier()) == 0 && !p.errorAtOutput() {
				return false
			}
		}
		return true
	}
	// If error exists somewhere, require an X-path to an output.
	if p.anyError() {
		return p.xPathExists()
	}
	return true
}

// anyError reports whether any net carries D or D'. Only the fault's
// forward cone (and an FF-output fault's own Q) can.
func (p *searcher) anyError() bool {
	for _, gi := range p.cone {
		if p.isError(p.fl.Out[gi]) {
			return true
		}
	}
	if q, ok := p.forcedQ(); ok && p.isError(q) {
		return true
	}
	return false
}

// dFrontier returns gates with an error on some input and a non-error,
// not-fully-determined output, in gate-ID order. Such a gate reads an
// error net, so it lies in the forward cone. The slice is reused by the
// next call.
func (p *searcher) dFrontier() []netlist.GateID {
	out := p.frontier[:0]
	for _, gi := range p.cone {
		o := p.fl.Out[gi]
		if p.isError(o) {
			continue
		}
		if p.good[o] != X && p.bad[o] != X {
			continue // fully determined, error cannot appear anymore
		}
		for _, in := range p.fl.In(gi) {
			if p.isError(in) {
				out = append(out, gi)
				break
			}
		}
	}
	p.frontier = out
	return out
}

// xPathExists checks structural reachability from any error net or
// D-frontier gate to an observation point through nets that are not fully
// determined.
func (p *searcher) xPathExists() bool {
	// error directly at an obs point counts
	if p.errorAtOutput() {
		return true
	}
	frontier := p.dFrontier()
	if len(frontier) == 0 {
		return false
	}
	ep := nextEpoch(p.seen, &p.seenEp)
	p.stack = append(p.stack[:0], frontier...)
	for len(p.stack) > 0 {
		g := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if p.seen[g] == ep {
			continue
		}
		p.seen[g] = ep
		out := p.fl.Out[g]
		if p.fl.ObsHead[out] >= 0 {
			return true
		}
		if p.good[out] != X && p.bad[out] != X && !p.isError(out) {
			continue // blocked: fully determined without error
		}
		p.stack = append(p.stack, p.fl.Rdrs[p.fl.RdrOff[out]:p.fl.RdrOff[out+1]]...)
	}
	return false
}

// objective picks the next (net, value) goal: activate the fault if not
// yet activated, otherwise advance a D-frontier gate.
func (p *searcher) objective() (netlist.NetID, V3, bool) {
	f := p.fault
	want := not3(saVal(f.StuckAt1))
	line := p.siteLine()
	if f.Gate >= 0 {
		if p.good[line] == X {
			return line, want, true
		}
	} else {
		// FF fault: goal is to capture the opposite value into the cell (or
		// propagate combinationally; capture goal is the simple one)
		if p.good[line] == X {
			return line, want, true
		}
		// capture blocked: activate at Q, then advance the D-frontier
		if q := p.n.FFs[f.FF].Q; p.good[q] == X {
			return q, want, true
		}
	}
	// Input-pin faults: once the pin line is activated the divergence lives
	// inside the faulty gate, which the D-frontier (a net-level notion)
	// cannot see. Sensitize the faulty gate by setting its other X inputs
	// to non-controlling values.
	if f.Gate >= 0 && f.Pin >= 0 && p.good[line] == want {
		k, out := p.fl.Kind[f.Gate], p.fl.Out[f.Gate]
		if !p.isError(out) && (p.good[out] == X || p.bad[out] == X) {
			nc, has := nonControlling(k)
			for pin, in := range p.fl.In(f.Gate) {
				if pin == f.Pin || p.good[in] != X {
					continue
				}
				if k == netlist.Mux2 && pin == 0 {
					// route the faulty data pin through the mux
					if f.Pin == 1 {
						return in, Zero, true
					}
					return in, One, true
				}
				if has {
					return in, nc, true
				}
				return in, Zero, true
			}
		}
	}
	frontier := p.dFrontier()
	for _, gi := range frontier {
		k, ins := p.fl.Kind[gi], p.fl.In(gi)
		// set an X input to the gate's non-controlling value
		nc, has := nonControlling(k)
		for pin, in := range ins {
			if p.good[in] == X {
				if k == netlist.Mux2 && pin == 0 {
					// select the data input carrying the error
					for di := 1; di <= 2; di++ {
						if p.isError(ins[di]) {
							if di == 1 {
								return in, Zero, true
							}
							return in, One, true
						}
					}
					return in, Zero, true
				}
				if has {
					return in, nc, true
				}
				// XOR-family: any definite value sensitizes
				return in, Zero, true
			}
		}
	}
	return 0, X, false
}

// nonControlling returns the non-controlling input value of a gate kind.
func nonControlling(k netlist.GateKind) (V3, bool) {
	switch k {
	case netlist.And, netlist.Nand:
		return One, true
	case netlist.Or, netlist.Nor:
		return Zero, true
	}
	return X, false
}

// backtrace walks an objective back to an unassigned PI, returning the PI
// index and value (or -1 if no X input path exists).
func (p *searcher) backtrace(net netlist.NetID, val V3) (int, V3) {
	for hops := 0; hops < p.n.NumNets()+4; hops++ {
		if pi := p.piIndex[net]; pi >= 0 {
			if p.assign[pi] != X {
				return -1, X // already assigned; objective unreachable
			}
			return int(pi), val
		}
		gid := p.n.DriverGate(net)
		if gid < 0 {
			return -1, X // FF D as objective shouldn't occur outside obs
		}
		k, ins := p.fl.Kind[gid], p.fl.In(gid)
		switch k {
		case netlist.Not:
			net, val = ins[0], not3(val)
		case netlist.Buf:
			net = ins[0]
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			inv := k == netlist.Nand || k == netlist.Nor
			target := val
			if inv {
				target = not3(val)
			}
			// choose an X input: if target is the controlling value one X
			// input suffices; otherwise all inputs need the non-controlling
			// value — either way descending into the first X input works.
			next := netlist.InvalidNet
			for _, in := range ins {
				if p.good[in] == X {
					next = in
					break
				}
			}
			if next == netlist.InvalidNet {
				return -1, X
			}
			net, val = next, target
		case netlist.Xor, netlist.Xnor:
			target := val
			if k == netlist.Xnor {
				target = not3(val)
			}
			// parity of known inputs
			parity := Zero
			next := netlist.InvalidNet
			for _, in := range ins {
				if p.good[in] == X {
					if next == netlist.InvalidNet {
						next = in
					}
				} else {
					parity = xor3(parity, p.good[in])
				}
			}
			if next == netlist.InvalidNet {
				return -1, X
			}
			net, val = next, xor3(target, parity)
		case netlist.Mux2:
			sel, a, b := ins[0], ins[1], ins[2]
			switch {
			case p.good[sel] == Zero:
				net = a
			case p.good[sel] == One:
				net = b
			case p.good[a] == X:
				net = a // will need sel=0 later; objective loop handles it
			case p.good[b] == X:
				net = b
			default:
				// both data known, sel X: set sel to pick the matching one
				if p.good[a] == val {
					net, val = sel, Zero
				} else {
					net, val = sel, One
				}
			}
		case netlist.Const0, netlist.Const1:
			return -1, X
		}
	}
	return -1, X
}
