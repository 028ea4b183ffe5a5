package netlist

// Observation points of a full-scan design are FF D inputs and primary
// outputs; control points are FF Q outputs and primary inputs. The cone
// helpers below compute intra-cycle structural reachability between them —
// exactly the relation the ICI rule of the paper constrains.

// ObsPoint names a scan observation point: either a flip-flop (its D input
// is captured on the test's single functional cycle) or a primary output.
type ObsPoint struct {
	FF  FFID // -1 when the point is a primary output
	Out int  // index into Netlist.Outputs when FF == -1
}

// ObsPoints enumerates all observation points, flip-flops first (in FF
// order), then primary outputs. The index of a point in this slice is its
// "scan signature bit" used by the fault simulator.
func (n *Netlist) ObsPoints() []ObsPoint {
	pts := make([]ObsPoint, 0, len(n.FFs)+len(n.Outputs))
	for fi := range n.FFs {
		pts = append(pts, ObsPoint{FF: FFID(fi), Out: -1})
	}
	for oi := range n.Outputs {
		pts = append(pts, ObsPoint{FF: -1, Out: oi})
	}
	return pts
}

// ObsNet returns the net sampled at an observation point.
func (n *Netlist) ObsNet(p ObsPoint) NetID {
	if p.FF >= 0 {
		return n.FFs[p.FF].D
	}
	return n.Outputs[p.Out]
}

// FanInComps returns, for each observation point (same indexing as
// ObsPoints), the set of ICI components whose gates appear in the point's
// intra-cycle combinational fan-in cone. Traversal stops at FF Q nets and
// primary inputs — signals that cross a cycle boundary. A design in which
// every observation point's set is a subset of one "super-component"
// satisfies the paper's ICI rule at that granularity.
func (n *Netlist) FanInComps() [][]CompID {
	pts := n.ObsPoints()
	out := make([][]CompID, len(pts))
	seenGate := make([]int32, len(n.Gates))
	for i := range seenGate {
		seenGate[i] = -1
	}
	var stack []GateID
	for pi, p := range pts {
		net := n.ObsNet(p)
		compSet := map[CompID]bool{}
		stack = stack[:0]
		if g := n.nets[net].gate; g >= 0 {
			stack = append(stack, g)
		}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seenGate[g] == int32(pi) {
				continue
			}
			seenGate[g] = int32(pi)
			gt := &n.Gates[g]
			compSet[gt.Comp] = true
			for _, in := range gt.In {
				if d := n.nets[in].gate; d >= 0 {
					stack = append(stack, d)
				}
			}
		}
		comps := make([]CompID, 0, len(compSet))
		for c := range compSet {
			comps = append(comps, c)
		}
		out[pi] = comps
	}
	return out
}
