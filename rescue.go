// Package rescue is a full reimplementation of the system described in
// Schuchman & Vijaykumar, "Rescue: A Microarchitecture for Testability and
// Defect Tolerance" (ISCA 2005): an out-of-order superscalar pipeline
// redesigned for intra-cycle logic independence (ICI) so that conventional
// scan test isolates hard faults to microarchitectural blocks, which are
// then mapped out for degraded — rather than discarded — operation.
//
// The package is a facade over the implementation packages:
//
//	netlist   gate-level IR with ICI component tags
//	scan      scan-chain DFT (mux-FF cells, shift/capture)
//	fault     stuck-at fault model + event-driven fault simulation
//	atpg      PODEM test generation with random-pattern bootstrap
//	ici       ICI graphs, audits, and the three transformations
//	rtl       structural generators: baseline & Rescue pipelines
//	uarch     cycle-level performance simulator with degraded modes
//	workload  synthetic SPEC2000-like benchmark generators
//	area      Table 2 area model and technology scaling
//	yield     negative-binomial yield and YAT (EQ 1-3)
//	core      the end-to-end flow (build, test, isolate, map out, YAT)
//
// The typical flow:
//
//	ctx := context.Background()
//	sys, _ := rescue.Build(rescue.DefaultConfig(), rescue.RescueDesign)
//	tp, _ := sys.GenerateTestsFlow(ctx, rescue.DefaultGenConfig(), nil)
//	rep, _ := sys.IsolateCampaignFlow(ctx, tp, 1000, rescue.Stages(), 1, 0, nil)
//	degr, _ := rescue.MapOut([]string{"IQ0"})
//	rows, _ := rescue.IPCStudyFlow(ctx, nil, 100_000, 1_000_000, 0)
package rescue

import (
	"context"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/ici"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// Design construction.
type (
	// Config parameterizes the generated gate-level pipelines.
	Config = rtl.Config
	// Variant selects the baseline or the ICI-transformed design.
	Variant = rtl.Variant
	// System is a built design with scan chain and ICI audit.
	System = core.System
	// TestProgram is a generated scan-test set.
	TestProgram = core.TestProgram
	// ScanSummary is a Table 3 row.
	ScanSummary = core.ScanSummary
	// IsolationReport is a Section 6.1 campaign outcome.
	IsolationReport = core.IsolationReport
	// GenConfig tunes ATPG.
	GenConfig = atpg.GenConfig
	// Grouping assigns components to super-components.
	Grouping = ici.Grouping
	// FaultCampaign shards fault simulation across workers with results
	// bit-identical to the serial path at any worker count. Runs take a
	// context for cooperative cancellation (chunk granularity), isolate
	// worker panics into a fault.PanicError, and reject overlapping calls
	// with fault.ErrCampaignBusy.
	FaultCampaign = fault.Campaign
	// FaultCampaignConfig tunes workers and detect-only (coverage) mode.
	FaultCampaignConfig = fault.CampaignConfig
	// FaultStats records campaign work (faults simulated, word-sims,
	// gate events, checkpoint rehydrations, wall time).
	FaultStats = fault.Stats
	// FaultCheckpoint is a crash-safe, append-only journal of completed
	// campaign work: each chunk is encoded once and appended, and a record
	// torn by a crash is dropped on load. An interrupted flow resumed
	// against the same journal rehydrates the journaled chunks and
	// converges bit-identically to an uninterrupted run. The *Flow methods
	// (GenerateTestsFlow, IsolateCampaignFlow, MultiFaultIsolationFlow,
	// fault.BuildDictionaryFlow) accept one.
	FaultCheckpoint = fault.Checkpoint
)

// OpenFaultCheckpoint opens a campaign checkpoint journal for a run: with
// resume an existing journal is loaded, otherwise a fresh one is started
// (refusing to clobber an existing file).
func OpenFaultCheckpoint(path string, resume bool) (*FaultCheckpoint, error) {
	return fault.OpenCheckpoint(path, resume)
}

// Interrupted reports whether a flow error is a cooperative cancellation
// (Ctrl-C, deadline, chaos harness) rather than a hard failure — the
// outcomes worth resuming from a checkpoint.
func Interrupted(err error) bool { return fault.Interrupted(err) }

// NewFaultCampaign prepares a parallel fault-simulation campaign over a
// generated test program's simulator.
func NewFaultCampaign(tp *TestProgram, cfg FaultCampaignConfig) *FaultCampaign {
	return fault.NewCampaign(tp.Gen.Sim, cfg)
}

// Build variants.
const (
	Baseline     = rtl.Baseline
	RescueDesign = rtl.RescueDesign
)

// DefaultConfig returns the full-size (4-way) netlist configuration;
// SmallConfig the reduced one used by tests and quick demos.
func DefaultConfig() Config { return rtl.Default() }

// SmallConfig returns the reduced 2-way netlist configuration.
func SmallConfig() Config { return rtl.Small() }

// DefaultGenConfig returns production-like ATPG settings.
func DefaultGenConfig() GenConfig { return atpg.DefaultGenConfig() }

// Build constructs a system (netlist + scan + ICI audit).
func Build(cfg Config, v Variant) (*System, error) { return core.Build(cfg, v) }

// Stages lists the six pipeline stages of the isolation campaign.
func Stages() []string { return core.Stages() }

// MapOut converts isolated faulty super-components into a degraded
// configuration (the fault-map register contents).
func MapOut(supers []string) (Degraded, error) { return core.MapOut(supers) }

// Performance simulation.
type (
	// Params configures the cycle-level simulator.
	Params = uarch.Params
	// Degraded selects mapped-out components.
	Degraded = uarch.Degraded
	// Stats is a simulation result.
	Stats = uarch.Stats
	// Sim is one simulator instance.
	Sim = uarch.Sim
	// Profile describes a synthetic benchmark.
	Profile = workload.Profile
	// IPCRow is one Figure 8 bar pair.
	IPCRow = core.IPCRow
	// PerfModel holds per-node degraded IPCs for the YAT study.
	PerfModel = core.PerfModel
	// YATRow is one Figure 9 bar group.
	YATRow = core.YATRow
)

// DefaultParams returns the Table 1 baseline machine; RescueParams the
// Rescue machine with the Section 5 modifications.
func DefaultParams() Params { return uarch.DefaultParams() }

// RescueParams returns the Rescue machine parameters.
func RescueParams() Params { return uarch.RescueParams() }

// NewSim builds a simulator for a benchmark profile.
func NewSim(p Params, prof Profile) (*Sim, error) { return uarch.New(p, prof) }

// Benchmarks returns the 23 SPEC2000 stand-in profiles.
func Benchmarks() []Profile { return workload.Benchmarks() }

// BenchmarkByName finds a profile.
func BenchmarkByName(name string) (Profile, error) { return workload.ByName(name) }

// IPCStudyFlow reproduces Figure 8 (workers <= 0 = all cores).
func IPCStudyFlow(ctx context.Context, benchNames []string, warmup, commit int64, workers int) ([]IPCRow, error) {
	return core.IPCStudyFlow(ctx, benchNames, warmup, commit, workers)
}

// Yield analysis.
type (
	// Scaling is a technology node descriptor.
	Scaling = area.Scaling
	// AreaModel is a per-core area breakdown.
	AreaModel = area.Model
	// CoreConfig identifies a degraded configuration.
	CoreConfig = yield.CoreConfig
	// ChipResult is one Figure 9 scenario.
	ChipResult = yield.ChipResult
)

// Node builds a technology-node descriptor for a feature size in nm.
func Node(nm int) Scaling { return area.Node(nm) }

// Nodes returns the four plotted Figure 9 nodes.
func Nodes() []Scaling { return area.Nodes() }

// BaselineArea and RescueArea return the Table 2 core models.
func BaselineArea() AreaModel { return area.BaselineWithScan() }

// RescueArea returns the Rescue core area model.
func RescueArea() AreaModel { return area.Rescue() }

// BuildPerfModelFlow fills every (benchmark, degraded config) IPC entry at
// a node — the expensive input of the YAT study (workers <= 0 = all
// cores). Each distinct machine runs once: a benchmark with no FP-class
// instruction shares one simulation across the FP degradations.
func BuildPerfModelFlow(ctx context.Context, node Scaling, benchNames []string, warmup, commit int64, workers int) (*PerfModel, error) {
	return core.BuildPerfModelFlow(ctx, node, benchNames, warmup, commit, workers)
}

// YATStudy reproduces one Figure 9 panel.
func YATStudy(stagnate Scaling, models map[int]*PerfModel) ([]YATRow, error) {
	return core.YATStudy(stagnate, models)
}
