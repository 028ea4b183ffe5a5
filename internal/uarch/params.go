// Package uarch is a cycle-level out-of-order superscalar performance
// simulator in the SimpleScalar mold, with the five Rescue modifications of
// Section 5:
//
//  1. separate int/fp issue queues and active list;
//  2. +2 cycles of branch-misprediction penalty (front/back shift stages);
//  3. cycle-split inter-segment issue-queue compaction with a fixed-size
//     compaction buffer between the halves;
//  4. issue-queue entries held an extra cycle, and an extra cycle of
//     issued instructions squashed on L1 misses (the shift stage between
//     issue and register read);
//  5. the per-half independent-selection / replay-the-smaller-half issue
//     policy.
//
// It also models the degraded configurations that yield-adjusted
// throughput needs: disabled frontend groups, backend groups, and queue
// halves (Section 4's half-pipeline map-out).
package uarch

import "fmt"

// ReplayPolicy selects how Rescue resolves over-selection (an ablation
// knob; the paper replays the half that selected fewer instructions).
type ReplayPolicy int

// Replay policies.
const (
	// ReplaySmallerHalf is the paper's policy: replay every instruction
	// from the half that selected fewer.
	ReplaySmallerHalf ReplayPolicy = iota
	// ReplayAll replays both halves (strawman).
	ReplayAll
	// OracleCombine magically merges the two halves' selections up to the
	// issue limit (no replay — an upper bound that real ICI hardware
	// cannot implement because it requires intra-cycle communication).
	OracleCombine
)

func (r ReplayPolicy) String() string {
	switch r {
	case ReplaySmallerHalf:
		return "smaller-half"
	case ReplayAll:
		return "all"
	default:
		return "oracle"
	}
}

// Degraded describes which redundant components are fault-mapped out.
// Counts are in fault-equivalence groups (a frontend group is two ways; a
// backend group is two ways with their FUs and a memory port).
type Degraded struct {
	FEGroupsDisabled  int
	IntGroupsDisabled int
	FPGroupsDisabled  int
	IntIQHalvesDown   int
	FPIQHalvesDown    int
	LSQHalvesDown     int
}

// DegradedError is the typed validation failure for impossible degraded
// shapes: a field asking for more disabled groups or halves than the
// design has (every redundant resource comes in exactly two), or a
// negative count. Callers match it with errors.As to learn which knob
// was out of range.
type DegradedError struct {
	Field string // the Degraded field name
	Value int    // the rejected value
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("uarch: %s = %d out of range [0,2] (each redundant resource has exactly two members)", e.Field, e.Value)
}

// Validate rejects impossible degraded shapes. Counts of 2 are legal —
// they describe a dead-but-representable configuration (Dead reports it,
// MapOut refuses to ship it) — but 3+ halves of a two-half queue, or a
// negative count, cannot describe any die and used to be silently clamped
// or to panic deep in the simulator.
func (d Degraded) Validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"FEGroupsDisabled", d.FEGroupsDisabled},
		{"IntGroupsDisabled", d.IntGroupsDisabled},
		{"FPGroupsDisabled", d.FPGroupsDisabled},
		{"IntIQHalvesDown", d.IntIQHalvesDown},
		{"FPIQHalvesDown", d.FPIQHalvesDown},
		{"LSQHalvesDown", d.LSQHalvesDown},
	}
	for _, f := range fields {
		if f.v < 0 || f.v > 2 {
			return &DegradedError{Field: f.name, Value: f.v}
		}
	}
	return nil
}

// Dead reports whether the configuration cannot execute at all.
func (d Degraded) Dead() bool {
	return d.FEGroupsDisabled >= 2 || d.IntGroupsDisabled >= 2 ||
		d.FPGroupsDisabled >= 2 || d.IntIQHalvesDown >= 2 ||
		d.FPIQHalvesDown >= 2 || d.LSQHalvesDown >= 2
}

func (d Degraded) String() string {
	return fmt.Sprintf("fe-%d int-%d fp-%d iqi-%d iqf-%d lsq-%d",
		d.FEGroupsDisabled, d.IntGroupsDisabled, d.FPGroupsDisabled,
		d.IntIQHalvesDown, d.FPIQHalvesDown, d.LSQHalvesDown)
}

// Params configures a simulation.
type Params struct {
	Ways        int // frontend/backend ways (4)
	IssueWidth  int // per-queue issue bandwidth at full strength
	CommitWidth int

	IntIQSize int // Table 1: 36
	FPIQSize  int // Table 1: 36
	LSQSize   int // 32
	ROBSize   int // active list: 128

	// FrontendDepth is fetch-to-dispatch latency; a mispredicted branch
	// costs resolution + this refill (Table 1: 15-cycle penalty).
	FrontendDepth int

	Rescue       bool
	CompBufSlots int // Rescue inter-segment compaction buffer (4)
	ReplayPolicy ReplayPolicy

	// SquashWindow: cycles of issued instructions squashed on an L1 miss
	// (1 baseline; Rescue adds one for the issue->regread shift stage).
	SquashWindow int

	// Technology scaling (Section 5): each halving step adds 2 cycles of
	// misprediction penalty and multiplies memory latency by 1.5.
	MemLatencyScale float64
	ExtraMispred    int

	// Self-healing BTB extension (related-work integration): fraction of
	// BTB entries defective, tolerated by detect-and-avoid with the given
	// spares. Zero = pristine BTB (the paper's chipkill assumption).
	BTBFaultFrac float64
	BTBSpares    int

	Degr Degraded
}

// DefaultParams returns the Table 1 baseline machine.
func DefaultParams() Params {
	return Params{
		Ways:            4,
		IssueWidth:      4,
		CommitWidth:     4,
		IntIQSize:       36,
		FPIQSize:        36,
		LSQSize:         32,
		ROBSize:         128,
		FrontendDepth:   15,
		CompBufSlots:    4,
		SquashWindow:    1,
		MemLatencyScale: 1,
	}
}

// RescueParams returns the Rescue machine: same resources, plus the five
// Section 5 modifications.
func RescueParams() Params {
	p := DefaultParams()
	p.Rescue = true
	p.FrontendDepth += 2 // front and back shift stages on the redirect path
	p.SquashWindow = 2
	return p
}

// ParamError is the typed validation failure for a machine that could
// never commit an instruction: a width or structure size that leaves some
// stage no slot to move an instruction through, which would otherwise
// spin the simulator for ever. Callers match it with errors.As to learn
// which knob was out of range.
type ParamError struct {
	Field string // the Params field name
	Value int    // the rejected value
	Want  string // the legal range, such as ">= 1" or "in [1,17]"
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("uarch: %s = %d, want %s (the pipeline could never commit)", e.Field, e.Value, e.Want)
}

// Validate checks parameter sanity: even widths and queue sizes, a
// machine that can make progress (see ParamError), and a legal degraded
// shape.
func (p Params) Validate() error {
	if p.Ways < 2 || p.Ways%2 != 0 {
		return fmt.Errorf("uarch: Ways must be even >= 2")
	}
	if p.IntIQSize%2 != 0 || p.FPIQSize%2 != 0 || p.LSQSize%2 != 0 {
		return fmt.Errorf("uarch: queue sizes must be even (two halves)")
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"IssueWidth", p.IssueWidth, 1},
		{"CommitWidth", p.CommitWidth, 1},
		{"IntIQSize", p.IntIQSize, 2},
		{"FPIQSize", p.FPIQSize, 2},
		{"LSQSize", p.LSQSize, 2},
		{"ROBSize", p.ROBSize, 1},
		{"FrontendDepth", p.FrontendDepth, 0},
		{"SquashWindow", p.SquashWindow, 0},
	} {
		if f.v < f.min {
			return &ParamError{Field: f.name, Value: f.v, Want: fmt.Sprintf(">= %d", f.min)}
		}
	}
	// the compaction buffer comes out of the new half of each issue
	// queue, which must keep at least one slot
	if maxBuf := min(p.IntIQSize, p.FPIQSize)/2 - 1; p.Rescue && (p.CompBufSlots < 1 || p.CompBufSlots > maxBuf) {
		return &ParamError{Field: "CompBufSlots", Value: p.CompBufSlots, Want: fmt.Sprintf("in [1,%d]", maxBuf)}
	}
	if err := p.Degr.Validate(); err != nil {
		return err
	}
	if !p.Rescue && (p.Degr != Degraded{}) {
		return fmt.Errorf("uarch: degraded operation requires the Rescue design")
	}
	// one group down must leave the frontend and each backend a way (two
	// down is a dead shape, which New rejects on its own)
	if max(p.Degr.FEGroupsDisabled, p.Degr.IntGroupsDisabled, p.Degr.FPGroupsDisabled) == 1 && p.Ways < 4 {
		return &ParamError{Field: "Ways", Value: p.Ways, Want: ">= 4 with a group disabled"}
	}
	return nil
}

// feWidth returns the usable frontend width.
func (p *Params) feWidth() int {
	w := p.Ways - 2*p.Degr.FEGroupsDisabled
	if w < 0 {
		w = 0
	}
	return w
}

// intWays / fpWays return usable backend ways per type.
func (p *Params) intWays() int { return p.Ways - 2*p.Degr.IntGroupsDisabled }
func (p *Params) fpWays() int  { return p.Ways - 2*p.Degr.FPGroupsDisabled }
