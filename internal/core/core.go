// Package core assembles the Rescue system end to end — the paper's full
// flow in one API:
//
//	build the gate-level design (baseline or Rescue)      internal/rtl
//	insert scan                                            internal/scan
//	audit intra-cycle logic independence                   internal/ici
//	generate tests (ATPG)                                  internal/atpg
//	simulate faults, isolate to super-components           internal/fault
//	map out faulty components                              fault-map register
//	run degraded-mode performance simulation               internal/uarch
//	compute yield-adjusted throughput                      internal/yield
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/ici"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/uarch"
)

// System is a built design with its scan chain and ICI audit.
type System struct {
	Design *rtl.Design
	Chain  *scan.Chain
	Audit  *ici.AuditResult
}

// Build constructs a system: netlist, scan insertion, ICI audit. The
// baseline variant builds successfully but its audit reports violations —
// that is the paper's point, not an error.
func Build(cfg rtl.Config, v rtl.Variant) (*System, error) {
	return BuildChains(cfg, v, 1)
}

// BuildChains is Build with an explicit scan-chain split — the
// design-space knob trading test time (shorter chains shift faster)
// against chipkill routing area. Build passes 1, the paper's single
// chain; every golden is pinned against that.
func BuildChains(cfg rtl.Config, v rtl.Variant, chains int) (*System, error) {
	d, err := rtl.Build(cfg, v)
	if err != nil {
		return nil, err
	}
	c, err := scan.Insert(d.N, chains)
	if err != nil {
		return nil, err
	}
	return &System{Design: d, Chain: c, Audit: ici.Audit(d.N, d.Grouping)}, nil
}

// TestProgram is a generated scan-test set with its Table 3 bookkeeping.
type TestProgram struct {
	Universe *fault.Universe
	Gen      *atpg.GenResult

	partOnce sync.Once
	part     *FaultPartition // see System.Partition
}

// GenerateTestsFlow runs the ATPG flow (random phase + PODEM) on the
// system, with cooperative cancellation and an optional campaign checkpoint
// journal (see atpg.GenerateFlow). On interrupt the partial TestProgram —
// carrying the campaign Stats so far — is returned alongside the error.
func (s *System) GenerateTestsFlow(ctx context.Context, cfg atpg.GenConfig, ck *fault.Checkpoint) (*TestProgram, error) {
	u := fault.NewUniverse(s.Design.N)
	g, err := atpg.GenerateFlow(ctx, s.Chain, u, cfg, ck)
	return &TestProgram{Universe: u, Gen: g}, err
}

// ScanSummary is one design's row of the paper's Table 3.
type ScanSummary struct {
	Variant    string
	Faults     int // uncollapsed fault universe
	ScanCells  int
	Vectors    int
	Cycles     int
	Coverage   float64
	Untestable int
	Aborted    int
}

// Summary extracts the Table 3 row.
func (s *System) Summary(tp *TestProgram) ScanSummary {
	return ScanSummary{
		Variant:    s.Design.Variant.String(),
		Faults:     tp.Gen.Faults,
		ScanCells:  tp.Gen.ScanCells,
		Vectors:    tp.Gen.Vectors,
		Cycles:     tp.Gen.Cycles,
		Coverage:   tp.Gen.Coverage,
		Untestable: tp.Gen.Untestable,
		Aborted:    tp.Gen.Aborted,
	}
}

// MapOut sentinel errors, distinguishable with errors.Is: the fab flow
// bins dies by which way a diagnosis left no working configuration.
var (
	// ErrChipkill reports a fault isolated to the chipkill logic.
	ErrChipkill = errors.New("core: fault in chipkill logic — core unusable")
	// ErrDead reports a degraded configuration with both members of some
	// redundant pair down.
	ErrDead = errors.New("core: degraded configuration is dead")
)

// MapOut converts a set of isolated faulty super-components into a
// degraded configuration for the performance model — the fault-map
// register's contents. It returns an error when the component set leaves
// no working configuration: ErrChipkill, ErrDead (both wrapped), or an
// unknown-super error.
func MapOut(supers []string) (uarch.Degraded, error) {
	var d uarch.Degraded
	seen := map[string]bool{}
	for _, s := range supers {
		if seen[s] {
			continue
		}
		seen[s] = true
		switch s {
		case "FE0", "FE1":
			d.FEGroupsDisabled++
		case "BE0", "BE1":
			d.IntGroupsDisabled++ // the netlist models the int backend
		case "IQ0", "IQ1":
			d.IntIQHalvesDown++
		case "LSQ0", "LSQ1":
			d.LSQHalvesDown++
		case "CHIPKILL":
			return d, ErrChipkill
		default:
			return d, fmt.Errorf("core: unknown super-component %q", s)
		}
	}
	if d.Dead() {
		return d, fmt.Errorf("%w: %v", ErrDead, d)
	}
	return d, nil
}
