// Package netlist provides a gate-level structural netlist intermediate
// representation: combinational gates, D flip-flops, primary inputs and
// outputs, and per-gate component tags used by the ICI (intra-cycle logic
// independence) analysis.
//
// A Netlist plays the role of the paper's post-synthesis gate-level verilog
// description. It is deliberately simple — single clock domain, two-valued
// simulation semantics, full-scan-friendly — because that is exactly the
// setting the Rescue paper assumes (full scan, single stuck-at faults,
// single-cycle capture tests).
package netlist

import (
	"fmt"
	"sort"
)

// GateKind enumerates the supported combinational cell types.
type GateKind uint8

// Supported gate kinds. Mux2 has inputs [sel, a, b] and computes
// "if sel then b else a". Const0/Const1 are tie cells with no inputs.
const (
	And GateKind = iota
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Mux2
	Const0
	Const1
)

var gateNames = [...]string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX2", "CONST0", "CONST1"}

func (k GateKind) String() string {
	if int(k) < len(gateNames) {
		return gateNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(k))
}

// NetID identifies a net (a single-bit signal) in a Netlist.
type NetID int32

// GateID identifies a gate in a Netlist.
type GateID int32

// FFID identifies a flip-flop in a Netlist.
type FFID int32

// CompID identifies an ICI component (the paper's "logic component" / LC).
// Component 0 is the anonymous default component.
type CompID int32

// InvalidNet is returned by lookups that fail.
const InvalidNet NetID = -1

// Gate is a combinational cell. In holds the input nets (for Mux2:
// [sel, a, b]); Out is the single output net. Comp tags the ICI component
// the gate belongs to.
type Gate struct {
	Kind GateKind
	In   []NetID
	Out  NetID
	Comp CompID
}

// FF is a positive-edge D flip-flop; after scan insertion it becomes a scan
// cell. Comp tags the component whose output register this FF implements.
type FF struct {
	D    NetID
	Q    NetID
	Comp CompID
	Name string
}

type netInfo struct {
	name string
	// driver bookkeeping: exactly one of gate/ff/input may drive a net.
	gate  GateID // -1 if none
	ff    FFID   // -1 if none
	input bool
}

// Netlist is a single-clock gate-level circuit.
type Netlist struct {
	Name string

	nets []netInfo
	// Gates may be edited in place only before the netlist is first
	// compiled (by Validate, Flat or NewState) or on a Clone:
	// Flat is a snapshot, and only the builder methods invalidate it.
	Gates []Gate
	FFs   []FF

	Inputs  []NetID
	Outputs []NetID

	compNames []string
	curComp   CompID

	flat *Flat // compiled form, nil until levelize (and after any edit)
}

// New returns an empty netlist with the given name. Component 0 is
// pre-registered as "<anon>".
func New(name string) *Netlist {
	return &Netlist{Name: name, compNames: []string{"<anon>"}}
}

// NumNets reports the number of nets.
func (n *Netlist) NumNets() int { return len(n.nets) }

// NumGates reports the number of gates.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumFFs reports the number of flip-flops.
func (n *Netlist) NumFFs() int { return len(n.FFs) }

// NetName returns the declared name of a net ("" if unnamed).
func (n *Netlist) NetName(id NetID) string { return n.nets[id].name }

// Component registers (or finds) a component by name and makes it current:
// gates and FFs created afterwards are tagged with it until the next call.
func (n *Netlist) Component(name string) CompID {
	for i, s := range n.compNames {
		if s == name {
			n.curComp = CompID(i)
			return n.curComp
		}
	}
	n.compNames = append(n.compNames, name)
	n.curComp = CompID(len(n.compNames) - 1)
	return n.curComp
}

// CompName returns a component's registered name.
func (n *Netlist) CompName(c CompID) string { return n.compNames[c] }

// NumComps reports the number of registered components (including <anon>).
func (n *Netlist) NumComps() int { return len(n.compNames) }

// CurrentComp returns the component gates are currently tagged with.
func (n *Netlist) CurrentComp() CompID { return n.curComp }

// SetCurrentComp switches the current component without registering a name.
func (n *Netlist) SetCurrentComp(c CompID) { n.curComp = c }

func (n *Netlist) newNet(name string) NetID {
	n.nets = append(n.nets, netInfo{name: name, gate: -1, ff: -1})
	n.flat = nil
	return NetID(len(n.nets) - 1)
}

// Input declares a primary input and returns its net.
func (n *Netlist) Input(name string) NetID {
	id := n.newNet(name)
	n.nets[id].input = true
	n.Inputs = append(n.Inputs, id)
	return id
}

// Output declares net id to be a primary output.
func (n *Netlist) Output(id NetID, name string) {
	if name != "" && n.nets[id].name == "" {
		n.nets[id].name = name
	}
	n.Outputs = append(n.Outputs, id)
	n.flat = nil
}

// AddGate appends a gate of kind k reading ins, returning its output net.
func (n *Netlist) AddGate(k GateKind, ins ...NetID) NetID {
	switch k {
	case Not, Buf:
		if len(ins) != 1 {
			panic(fmt.Sprintf("netlist: %v needs 1 input, got %d", k, len(ins)))
		}
	case Mux2:
		if len(ins) != 3 {
			panic(fmt.Sprintf("netlist: MUX2 needs 3 inputs (sel,a,b), got %d", len(ins)))
		}
	case Const0, Const1:
		if len(ins) != 0 {
			panic("netlist: const gate takes no inputs")
		}
	default:
		if len(ins) < 2 {
			panic(fmt.Sprintf("netlist: %v needs >=2 inputs, got %d", k, len(ins)))
		}
	}
	out := n.newNet("")
	g := Gate{Kind: k, In: append([]NetID(nil), ins...), Out: out, Comp: n.curComp}
	n.Gates = append(n.Gates, g)
	n.nets[out].gate = GateID(len(n.Gates) - 1)
	return out
}

// Convenience constructors for the common gate kinds.

// And returns the AND of the given nets.
func (n *Netlist) And(ins ...NetID) NetID { return n.AddGate(And, ins...) }

// Or returns the OR of the given nets.
func (n *Netlist) Or(ins ...NetID) NetID { return n.AddGate(Or, ins...) }

// Nand returns the NAND of the given nets.
func (n *Netlist) Nand(ins ...NetID) NetID { return n.AddGate(Nand, ins...) }

// Nor returns the NOR of the given nets.
func (n *Netlist) Nor(ins ...NetID) NetID { return n.AddGate(Nor, ins...) }

// Xor returns the XOR of the given nets.
func (n *Netlist) Xor(ins ...NetID) NetID { return n.AddGate(Xor, ins...) }

// Xnor returns the XNOR of the given nets.
func (n *Netlist) Xnor(ins ...NetID) NetID { return n.AddGate(Xnor, ins...) }

// Not returns the complement of a net.
func (n *Netlist) Not(in NetID) NetID { return n.AddGate(Not, in) }

// Buf returns a buffered copy of a net.
func (n *Netlist) Buf(in NetID) NetID { return n.AddGate(Buf, in) }

// Mux returns "sel ? b : a".
func (n *Netlist) Mux(sel, a, b NetID) NetID { return n.AddGate(Mux2, sel, a, b) }

// Const returns a tie-0 or tie-1 net.
func (n *Netlist) Const(v bool) NetID {
	if v {
		return n.AddGate(Const1)
	}
	return n.AddGate(Const0)
}

// AddFF appends a D flip-flop capturing net d, returning its Q net.
func (n *Netlist) AddFF(d NetID, name string) NetID {
	q := n.newNet(name)
	ff := FF{D: d, Q: q, Comp: n.curComp, Name: name}
	n.FFs = append(n.FFs, ff)
	n.nets[q].ff = FFID(len(n.FFs) - 1)
	return q
}

// DeclFF declares a flip-flop whose D input is not known yet — the idiom
// for feedback loops, where the Q net must exist before the logic that
// computes D can be built. The FF's D is InvalidNet until BindFFD is
// called; Validate rejects unbound FFs. Returns the FF and its Q net.
func (n *Netlist) DeclFF(name string) (FFID, NetID) {
	q := n.newNet(name)
	ff := FF{D: InvalidNet, Q: q, Comp: n.curComp, Name: name}
	n.FFs = append(n.FFs, ff)
	id := FFID(len(n.FFs) - 1)
	n.nets[q].ff = id
	return id, q
}

// BindFFD connects a declared flip-flop's D input to net d.
func (n *Netlist) BindFFD(ff FFID, d NetID) {
	n.FFs[ff].D = d
	n.flat = nil
}

// DriverGate returns the gate driving net id, or -1 if it is driven by a
// flip-flop, a primary input, or nothing.
func (n *Netlist) DriverGate(id NetID) GateID { return n.nets[id].gate }

// DriverFF returns the flip-flop driving net id, or -1.
func (n *Netlist) DriverFF(id NetID) FFID { return n.nets[id].ff }

// Validate checks structural sanity: every gate input driven, no
// combinational cycles, no floating FF D inputs. It returns the first
// problem found.
func (n *Netlist) Validate() error {
	for gi, g := range n.Gates {
		for pi, in := range g.In {
			if in < 0 || int(in) >= len(n.nets) {
				return fmt.Errorf("netlist %s: gate %d pin %d references invalid net %d", n.Name, gi, pi, in)
			}
			ni := n.nets[in]
			if ni.gate < 0 && ni.ff < 0 && !ni.input {
				return fmt.Errorf("netlist %s: gate %d pin %d reads undriven net %d (%s)", n.Name, gi, pi, in, ni.name)
			}
		}
	}
	for fi, ff := range n.FFs {
		if ff.D < 0 || int(ff.D) >= len(n.nets) {
			return fmt.Errorf("netlist %s: FF %d (%s) has unbound or invalid D net %d", n.Name, fi, ff.Name, ff.D)
		}
		ni := n.nets[ff.D]
		if ni.gate < 0 && ni.ff < 0 && !ni.input {
			return fmt.Errorf("netlist %s: FF %d (%s) has undriven D net %d", n.Name, fi, ff.Name, ff.D)
		}
	}
	if err := n.levelize(); err != nil {
		return err
	}
	return nil
}

// Flat is the compiled, read-only form of a netlist that PODEM and the
// fault simulator both evaluate over: per-gate arrays indexed by GateID,
// pins and readers in CSR form, a topological order with levels, and
// per-net observation chains. A Flat is a snapshot: after an edit through
// the builder methods the next Flat call compiles a fresh one, and earlier
// ones stay intact.
type Flat struct {
	Kind []GateKind // per gate
	Out  []NetID    // per gate: output net
	// The input nets of gate g (for Mux2: sel, a, b) are
	// Pins[PinOff[g]:PinOff[g+1]]; see In.
	PinOff []int32
	Pins   []NetID

	// Order lists the gates in topological (evaluation) order. Level is
	// each gate's combinational level: 0 for gates fed only by primary
	// inputs, FF outputs or nothing, otherwise one past the deepest
	// gate-driven input. Every reader of a gate's output sits at a strictly
	// higher level, so level-bucketed event queues evaluate in topological
	// order.
	Order    []GateID
	Level    []int32
	MaxLevel int32

	// The gates reading net id are Rdrs[RdrOff[id]:RdrOff[id+1]], in
	// gate-ID order, a gate reading the net on several pins appearing once
	// per pin.
	RdrOff []int32
	Rdrs   []GateID

	// Observation points (ObsPoints indices) per net, as intrusive chains:
	// a net can be the D input of several FFs and a primary output at once.
	// ObsHead[net] is the lowest obs index sampling the net (-1 = none);
	// ObsNext[obs] is the next higher one sampling the same net (-1 = end).
	ObsHead []int32
	ObsNext []int32
}

// In returns gate g's input nets. The slice is shared: read only.
func (f *Flat) In(g GateID) []NetID { return f.Pins[f.PinOff[g]:f.PinOff[g+1]] }

// Flat returns the netlist's compiled form, compiling it on first use. The
// arrays are shared: read only. It panics on a combinational cycle, which
// Validate reports as an error.
func (n *Netlist) Flat() *Flat {
	if err := n.levelize(); err != nil {
		panic(err)
	}
	return n.flat
}

// levelize compiles n.flat. FF Q nets and primary inputs are sources; a
// cycle among gates is a combinational loop error.
func (n *Netlist) levelize() error {
	if n.flat != nil {
		return nil
	}
	nNets, nGates := len(n.nets), len(n.Gates)
	f := &Flat{
		Kind:   make([]GateKind, nGates),
		Out:    make([]NetID, nGates),
		PinOff: make([]int32, nGates+1),
		RdrOff: make([]int32, nNets+1),
	}
	for gi := range n.Gates {
		g := &n.Gates[gi]
		f.Kind[gi] = g.Kind
		f.Out[gi] = g.Out
		f.Pins = append(f.Pins, g.In...)
		f.PinOff[gi+1] = int32(len(f.Pins))
		for _, in := range g.In {
			f.RdrOff[in+1]++
		}
	}
	for i := range n.nets {
		f.RdrOff[i+1] += f.RdrOff[i]
	}
	f.Rdrs = make([]GateID, f.RdrOff[nNets])
	fill := make([]int32, nNets)
	indeg := make([]int32, nGates)
	for gi := range n.Gates {
		for _, in := range f.In(GateID(gi)) {
			f.Rdrs[f.RdrOff[in]+fill[in]] = GateID(gi)
			fill[in]++
			if n.nets[in].gate >= 0 {
				indeg[gi]++
			}
		}
	}
	f.Order = make([]GateID, 0, nGates)
	queue := make([]GateID, 0, nGates)
	for gi := range n.Gates {
		if indeg[gi] == 0 {
			queue = append(queue, GateID(gi))
		}
	}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		f.Order = append(f.Order, g)
		out := f.Out[g]
		for _, s := range f.Rdrs[f.RdrOff[out]:f.RdrOff[out+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(f.Order) != nGates {
		// find one gate on a cycle for the error message
		for gi := range n.Gates {
			if indeg[gi] > 0 {
				return fmt.Errorf("netlist %s: combinational cycle through gate %d (%v, comp %s)",
					n.Name, gi, n.Gates[gi].Kind, n.compNames[n.Gates[gi].Comp])
			}
		}
		return fmt.Errorf("netlist %s: combinational cycle", n.Name)
	}
	f.Level = make([]int32, nGates)
	for _, gi := range f.Order {
		var lv int32
		for _, in := range f.In(gi) {
			if d := n.nets[in].gate; d >= 0 && f.Level[d]+1 > lv {
				lv = f.Level[d] + 1
			}
		}
		f.Level[gi] = lv
		f.MaxLevel = max(f.MaxLevel, lv)
	}
	f.ObsHead = make([]int32, nNets)
	for i := range f.ObsHead {
		f.ObsHead[i] = -1
	}
	f.ObsNext = make([]int32, len(n.FFs)+len(n.Outputs))
	link := func(net NetID, oi int) {
		f.ObsNext[oi] = -1
		if net >= 0 { // an unbound DeclFF samples nothing yet
			f.ObsNext[oi] = f.ObsHead[net]
			f.ObsHead[net] = int32(oi)
		}
	}
	// Link in reverse so each chain reads out in ascending obs order.
	for oi := len(n.Outputs) - 1; oi >= 0; oi-- {
		link(n.Outputs[oi], len(n.FFs)+oi)
	}
	for fi := len(n.FFs) - 1; fi >= 0; fi-- {
		link(n.FFs[fi].D, fi)
	}
	n.flat = f
	return nil
}

// Stats summarizes netlist size.
type Stats struct {
	Gates   int
	FFs     int
	Nets    int
	Inputs  int
	Outputs int
	Pins    int // total gate input pins
	ByKind  map[GateKind]int
	ByComp  map[string]int // gate count per component
}

// Stats computes size statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{
		Gates:   len(n.Gates),
		FFs:     len(n.FFs),
		Nets:    len(n.nets),
		Inputs:  len(n.Inputs),
		Outputs: len(n.Outputs),
		ByKind:  map[GateKind]int{},
		ByComp:  map[string]int{},
	}
	for _, g := range n.Gates {
		s.Pins += len(g.In)
		s.ByKind[g.Kind]++
		s.ByComp[n.compNames[g.Comp]]++
	}
	return s
}

// ComponentsUsed returns the sorted list of component names that tag at
// least one gate or FF.
func (n *Netlist) ComponentsUsed() []string {
	used := map[string]bool{}
	for _, g := range n.Gates {
		used[n.compNames[g.Comp]] = true
	}
	for _, ff := range n.FFs {
		used[n.compNames[ff.Comp]] = true
	}
	out := make([]string, 0, len(used))
	for s := range used {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
