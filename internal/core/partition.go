package core

import (
	"rescue/internal/netlist"
)

// FaultPartition sorts a test program's collapsed faults by where they
// sit in the design: the seed-independent candidate lists the isolation
// campaigns sample from and the fab fleet places defects with. Every list
// keeps the collapsed order, and all of it is read-only.
type FaultPartition struct {
	// ByStage lists each pipeline stage's gate faults outside CHIPKILL:
	// the single-fault isolation candidates.
	ByStage map[string][]netlist.Fault
	// Isolable lists every gate fault outside CHIPKILL: the multi-fault
	// isolation candidates.
	Isolable []netlist.Fault
	// BySuper lists each member super-component's gate faults: the fab
	// fleet's per-member defect pools.
	BySuper map[string][]netlist.Fault
	// Chipkill lists the gate faults in CHIPKILL or in no
	// super-component.
	Chipkill []netlist.Fault
	// Scan lists the scan-cell (FF output) faults.
	Scan []netlist.Fault

	n       *netlist.Netlist
	superOf []string // super-component of each netlist component
}

// SuperOf returns the super-component a fault sits in ("" for none).
func (p *FaultPartition) SuperOf(f netlist.Fault) string {
	return p.superOf[p.n.FaultSiteComp(f)]
}

// Partition returns tp's fault partition, computed on first use. A test
// program belongs to exactly one system, the one it was generated for, so
// tp keeps the partition: flows that never sample faults, such as Table 3
// and ATPG, never build it.
func (s *System) Partition(tp *TestProgram) *FaultPartition {
	tp.partOnce.Do(func() { tp.part = s.partition(tp.Universe.Collapsed) })
	return tp.part
}

func (s *System) partition(faults []netlist.Fault) *FaultPartition {
	n := s.Design.N
	p := &FaultPartition{
		ByStage: map[string][]netlist.Fault{},
		BySuper: map[string][]netlist.Fault{},
		n:       n,
		superOf: make([]string, n.NumComps()),
	}
	stageOf := make([]string, n.NumComps())
	for c := range p.superOf {
		name := n.CompName(netlist.CompID(c))
		p.superOf[c] = s.Design.Grouping[name]
		stageOf[c] = s.Design.StageOfComp[name]
	}
	for _, f := range faults {
		if f.Gate < 0 {
			p.Scan = append(p.Scan, f)
			continue
		}
		c := n.FaultSiteComp(f)
		super := p.superOf[c]
		if super == "CHIPKILL" || super == "" {
			p.Chipkill = append(p.Chipkill, f)
		} else {
			p.BySuper[super] = append(p.BySuper[super], f)
		}
		if super == "CHIPKILL" {
			continue
		}
		p.Isolable = append(p.Isolable, f)
		p.ByStage[stageOf[c]] = append(p.ByStage[stageOf[c]], f)
	}
	return p
}
