package core

import (
	"reflect"
	"sync"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
)

// refPartition is the per-job code the fault partition replaced:
// IsolateCampaignFlow's by-stage map, MultiFaultIsolationFlow's candidate
// list, and fab.New's per-super, chipkill and SCAN pools.
func refPartition(s *System, tp *TestProgram) (byStage map[string][]netlist.Fault, isolable []netlist.Fault, pools map[string][]netlist.Fault, ckPool []netlist.Fault) {
	n := s.Design.N
	byStage = map[string][]netlist.Fault{}
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			continue
		}
		comp := n.CompName(n.FaultSiteComp(f))
		super := s.Design.Grouping[comp]
		if super == "CHIPKILL" {
			continue
		}
		stage := s.Design.StageOfComp[comp]
		byStage[stage] = append(byStage[stage], f)
	}
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			continue
		}
		comp := n.CompName(n.FaultSiteComp(f))
		if s.Design.Grouping[comp] == "CHIPKILL" {
			continue
		}
		isolable = append(isolable, f)
	}
	pools = map[string][]netlist.Fault{}
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			continue
		}
		super := s.Design.Grouping[n.CompName(n.FaultSiteComp(f))]
		if super == "CHIPKILL" || super == "" {
			ckPool = append(ckPool, f)
			continue
		}
		pools[super] = append(pools[super], f)
	}
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			pools["SCAN"] = append(pools["SCAN"], f)
		}
	}
	return byStage, isolable, pools, ckPool
}

// TestFaultPartition pins the test program's fault partition to the
// per-job loops it replaced, order included, on both small designs, and
// checks that concurrent first uses share one partition.
func TestFaultPartition(t *testing.T) {
	for _, v := range []rtl.Variant{rtl.Baseline, rtl.RescueDesign} {
		s := buildSmall(t, v)
		tp := &TestProgram{Universe: fault.NewUniverse(s.Design.N)}
		parts := make([]*FaultPartition, 4)
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i] = s.Partition(tp)
			}()
		}
		wg.Wait()
		p := parts[0]
		for _, q := range parts {
			if q != p {
				t.Fatalf("%s: concurrent Partition calls built separate partitions", v)
			}
		}
		byStage, isolable, pools, ckPool := refPartition(s, tp)

		if !reflect.DeepEqual(p.ByStage, byStage) {
			t.Errorf("%s: ByStage differs from the isolation loop", v)
		}
		if !reflect.DeepEqual(p.Isolable, isolable) {
			t.Errorf("%s: Isolable differs from the multi-fault loop (%d vs %d faults)", v, len(p.Isolable), len(isolable))
		}
		scan := pools["SCAN"]
		delete(pools, "SCAN")
		if !reflect.DeepEqual(p.BySuper, pools) {
			t.Errorf("%s: BySuper differs from fab's member pools", v)
		}
		if !reflect.DeepEqual(p.Chipkill, ckPool) {
			t.Errorf("%s: Chipkill differs from fab's chipkill pool (%d vs %d faults)", v, len(p.Chipkill), len(ckPool))
		}
		if !reflect.DeepEqual(p.Scan, scan) {
			t.Errorf("%s: Scan differs from fab's SCAN pool (%d vs %d faults)", v, len(p.Scan), len(scan))
		}
		n := s.Design.N
		for _, f := range tp.Universe.Collapsed {
			if got, want := p.SuperOf(f), s.Design.Grouping[n.CompName(n.FaultSiteComp(f))]; got != want {
				t.Fatalf("%s: SuperOf(%v) = %q, want %q", v, f, got, want)
			}
		}
	}
}
