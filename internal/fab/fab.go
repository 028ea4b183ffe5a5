// Package fab closes the paper's defect-tolerance loop empirically: a
// Monte Carlo die lifecycle that manufactures a fleet of Rescue dies with
// clustered random defects, tests and diagnoses each one with the real
// scan-test machinery, programs the fault-map register, and ships
// survivors in degraded configurations — then compares the measured fleet
// yield and yield-adjusted throughput against the analytic EQ 2/3 model
// (yield.ChipAlpha) that Figure 9 is built from.
//
// Per die the lifecycle is:
//
//  1. sample a clustered defect count — a negative-binomial draw realized
//     as Gamma(alpha, mean 1) mixing of a Poisson, the same model EQ 3
//     integrates analytically — and place each defect in a component
//     chosen by silicon area, then as a concrete stuck-at fault in the
//     Rescue netlist;
//  2. run the chain flush test (scan-cell defects fail it; scan is
//     chipkill by construction), then the generated ATPG pattern set via
//     the shared fault-simulation campaign, and diagnose the union of
//     failing bits with the single-lookup ICI isolation table — with test
//     escapes, undetectable faults, ambiguous diagnoses, and chipkill
//     hits all emerging from the real machinery rather than being
//     modelled;
//  3. map the diagnosis to a degraded configuration (core.MapOut),
//     discarding chipkill/ambiguous/dead dies, exhausting selfheal.Array
//     spares for defects in self-healed structures when enabled;
//  4. score shipped dies with the degraded-IPC model and aggregate fleet
//     yield and YAT with confidence intervals.
//
// Determinism: die sampling is a pure function of (seed, die index), the
// deduplicated fault list is simulated as ONE campaign (bit-identical at
// any worker count, checkpoint/resume-able at chunk granularity), and the
// lifecycle walk is serial — so a killed 100k-die run resumes
// bit-identically at any -workers.
package fab

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rescue/internal/area"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/obs"
	"rescue/internal/selfheal"
	"rescue/internal/yield"
)

// Config parameterizes a fleet run.
type Config struct {
	Dies     int
	Node     area.Scaling
	Stagnate area.Scaling
	Growth   float64 // core growth rate per halving (e.g. 0.30)
	Seed     int64
	Workers  int // PODEM-search and fault-simulation workers (0 = all cores); output is identical at any count

	// SelfHealShare > 0 moves that fraction of the chipkill bucket into
	// self-healing arrays (the caller must pass the matching
	// area.RescueSelfHeal model): defects there consume spare entries
	// instead of killing the core, until exhaustion.
	SelfHealShare float64
	HealEntries   int // entries per core's healed array (default 1024)
	HealSpares    int // spare entries (default 16)
}

func (c Config) withDefaults() Config {
	if c.HealEntries == 0 {
		c.HealEntries = 1024
		c.HealSpares = 16
	}
	return c
}

// Engine is a configured die-lifecycle Monte Carlo.
type Engine struct {
	cfg Config
	sys *core.System
	tp  *core.TestProgram

	refBase, refResc yield.CoreModel // reference (90nm) models, as passed
	base, resc       yield.CoreModel // node-scaled
	density          float64         // faults/mm² at the node
	cores            int             // per die
	scanFrac         float64         // scan-cell fraction of the chipkill bucket
	healedArea       float64         // node-scaled self-healed silicon (not in resc.Area.Total)

	// Defect sites, from the test program's fault partition (read-only).
	pools  map[string][]netlist.Fault // member super -> candidate gate faults
	ckPool []netlist.Fault            // chipkill logic gate faults
	scan   []netlist.Fault            // scan-cell faults
}

// pairGroups are the redundant groups in sampling order.
var pairGroups = [...]area.Group{area.Frontend, area.IntIQ, area.FPIQ, area.LSQ, area.IntBE, area.FPBE}

// superName returns the netlist super-component of a pair member, or ""
// for groups the netlist does not model structurally (the FP cluster):
// defects there are attributed directly, a documented modelling shortcut
// with perfect diagnosis.
func superName(g area.Group, member int) string {
	switch g {
	case area.Frontend:
		return fmt.Sprintf("FE%d", member)
	case area.IntIQ:
		return fmt.Sprintf("IQ%d", member)
	case area.LSQ:
		return fmt.Sprintf("LSQ%d", member)
	case area.IntBE:
		return fmt.Sprintf("BE%d", member)
	}
	return ""
}

// memberOf inverts superName for the diagnosis walk.
func memberOf(super string) (area.Group, int, bool) {
	if len(super) < 3 {
		return 0, 0, false
	}
	m := int(super[len(super)-1] - '0')
	if m != 0 && m != 1 {
		return 0, 0, false
	}
	switch super[:len(super)-1] {
	case "FE":
		return area.Frontend, m, true
	case "IQ":
		return area.IntIQ, m, true
	case "LSQ":
		return area.LSQ, m, true
	case "BE":
		return area.IntBE, m, true
	}
	return 0, 0, false
}

// New builds an engine over an already-built Rescue system and test
// program. base and resc are the reference-node (90nm) area+IPC models —
// resc.IPC must cover yield.Configs(); the engine scales both to cfg.Node
// with the same yield.ScaleToNode the analytic model uses.
func New(sys *core.System, tp *core.TestProgram, base, resc yield.CoreModel, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Dies < 1 {
		return nil, fmt.Errorf("fab: need at least one die, got %d", cfg.Dies)
	}
	if cfg.Growth < 0 {
		return nil, fmt.Errorf("fab: negative growth rate %v", cfg.Growth)
	}
	if cfg.SelfHealShare < 0 || cfg.SelfHealShare >= 1 {
		return nil, fmt.Errorf("fab: self-heal share must be in [0,1), got %v", cfg.SelfHealShare)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("fab: negative workers %d", cfg.Workers)
	}
	e := &Engine{
		cfg:     cfg,
		sys:     sys,
		tp:      tp,
		refBase: base,
		refResc: resc,
		base:    yield.ScaleToNode(base, cfg.Node, cfg.Growth),
		resc:    yield.ScaleToNode(resc, cfg.Node, cfg.Growth),
		density: yield.Density(cfg.Node, cfg.Stagnate),
		cores:   cfg.Node.Cores(cfg.Growth),
	}
	// The scan-cell area inside the chipkill bucket is a constant of the
	// Rescue transformation; with self-healing the bucket shrinks, so the
	// scan fraction of what remains grows (scan cells are never healed).
	scanArea := area.Rescue().PairArea[area.Chipkill] * area.RescueScanFrac()
	if ck := resc.Area.PairArea[area.Chipkill]; ck > 0 {
		e.scanFrac = math.Min(scanArea/ck, 1)
	}
	if cfg.SelfHealShare > 0 {
		nodeScale := cfg.Node.CoreArea(1, cfg.Growth) // per-mm² factor
		e.healedArea = area.Rescue().PairArea[area.Chipkill] * cfg.SelfHealShare * nodeScale
	}

	// Candidate fault pools per member super-component, from the collapsed
	// universe (equivalent faults behave identically under every pattern);
	// scan-cell defect sites are every FF fault (chain flush catches any).
	part := sys.Partition(tp)
	e.pools, e.ckPool, e.scan = part.BySuper, part.Chipkill, part.Scan
	if len(e.ckPool) == 0 || len(e.scan) == 0 {
		return nil, fmt.Errorf("fab: netlist has no chipkill logic or scan cells to sample")
	}
	return e, nil
}

// defKind classifies a sampled defect.
type defKind uint8

const (
	defStruct  defKind = iota // gate fault in a pooled member super
	defDirect                 // member without netlist structure (FP cluster)
	defScan                   // scan cell: fails the chain flush test
	defCKLogic                // chipkill logic: isolated to CHIPKILL
	defHealed                 // self-healing array entry
)

// defect is one placed manufacturing defect.
type defect struct {
	kind   defKind
	group  area.Group
	member int
	fault  netlist.Fault // defStruct, defCKLogic, defScan
	entry  int           // defHealed
}

// sampleDie draws one die's defects: a single Gamma(alpha, mean 1)
// mixture value shared by all cores on the die (matching ChipAlpha's
// chip-level clustering), then an independent Poisson count per core with
// area-weighted placement — together distributionally identical to the
// analytic per-group negative-binomial model.
func (e *Engine) sampleDie(die int) [][]defect {
	r := dieRNG(e.cfg.Seed, die)
	x := r.gamma(yield.Alpha)
	perCore := make([][]defect, e.cores)
	lam := e.density * x * (e.resc.Area.Total + e.healedArea)
	for c := 0; c < e.cores; c++ {
		k := r.poisson(lam)
		for j := 0; j < k; j++ {
			perCore[c] = append(perCore[c], e.place(r))
		}
	}
	return perCore
}

// place locates one defect: healed silicon, else an area-weighted group
// pick; chipkill splits into scan cells vs logic; pair groups pick a
// member and a concrete fault site from that member's pool.
func (e *Engine) place(r *rng) defect {
	u := r.float64() * (e.resc.Area.Total + e.healedArea)
	if u >= e.resc.Area.Total {
		return defect{kind: defHealed, group: area.Chipkill, entry: r.intn(e.cfg.HealEntries)}
	}
	g := area.Chipkill
	for _, pg := range pairGroups {
		if u < e.resc.Area.PairArea[pg] {
			g = pg
			break
		}
		u -= e.resc.Area.PairArea[pg]
	}
	if g == area.Chipkill {
		if r.float64() < e.scanFrac {
			return defect{kind: defScan, group: g, fault: e.scan[r.intn(len(e.scan))]}
		}
		return defect{kind: defCKLogic, group: g, fault: e.ckPool[r.intn(len(e.ckPool))]}
	}
	member := r.intn(2)
	pool := e.pools[superName(g, member)]
	if len(pool) == 0 {
		// no netlist structure for this member (FP cluster, or the absent
		// second member of the reduced configuration): direct attribution
		return defect{kind: defDirect, group: g, member: member}
	}
	return defect{kind: defStruct, group: g, member: member, fault: pool[r.intn(len(pool))]}
}

// CoreCounts bins every manufactured core by its lifecycle outcome.
type CoreCounts struct {
	Clean     int // no defects: ships at full IPC
	Degraded  int // ≥1 member mapped out: ships degraded
	ChainFail int // scan-cell defect: chain flush fails, discarded
	ArrayDead int // self-healed array out of capacity, discarded
	Chipkill  int // diagnosis hit chipkill logic, discarded
	Ambiguous int // undiagnosable failing bits: conservative discard
	Dead      int // both members of some pair down, discarded
	FieldFail int // test escape shipped, fails in the field (IPC 0)
}

// Shipped returns cores that left the fab.
func (c CoreCounts) Shipped() int { return c.Clean + c.Degraded + c.FieldFail }

// DefectCounts bins sampled defects by placement.
type DefectCounts struct {
	Struct, Direct, Scan, CKLogic, Healed int
}

func (d DefectCounts) total() int { return d.Struct + d.Direct + d.Scan + d.CKLogic + d.Healed }

// FleetReport aggregates a fleet run, empirical beside analytic.
type FleetReport struct {
	Dies, Cores          int // cores = per die
	NodeNM, StagnateNM   int
	Growth               float64
	Seed                 int64
	Alpha                float64
	Density              float64 // faults/mm² at the node
	CoreArea             float64 // node-scaled rescue core area, mm²
	SelfHealShare        float64
	Defects              DefectCounts
	UniqueFaults         int // deduplicated faults simulated in the campaign
	Counts               CoreCounts
	EmpYield, EmpYieldCI float64 // functional cores / cores, ±95% (per-die)
	AnaYield             float64 // gamma-mixed analytic core yield
	EmpYAT, EmpYATCI     float64 // per-die IPC sum, ±95%
	AnaChip              yield.ChipResult
	Stats                fault.Stats
}

// Run manufactures the fleet: sample every die, simulate the deduplicated
// fault list as one checkpointable campaign, then walk the lifecycle
// serially. On interruption the partial report (carrying the campaign
// stats so far) is returned alongside the error; rerunning with the same
// configuration and the journal resumes bit-identically.
func (e *Engine) Run(ctx context.Context, ck *fault.Checkpoint) (*FleetReport, error) {
	defer obs.Span(ctx, "fab_lifecycle")()
	rep := &FleetReport{
		Dies: e.cfg.Dies, Cores: e.cores,
		NodeNM: e.cfg.Node.NodeNM, StagnateNM: e.cfg.Stagnate.NodeNM,
		Growth: e.cfg.Growth, Seed: e.cfg.Seed, Alpha: yield.Alpha,
		Density: e.density, CoreArea: e.resc.Area.Total,
		SelfHealShare: e.cfg.SelfHealShare,
	}

	// 1. Sample the whole fleet (pure function of seed and die index).
	dies := make([][][]defect, e.cfg.Dies)
	seen := map[netlist.Fault]bool{}
	var unique []netlist.Fault
	for i := range dies {
		dies[i] = e.sampleDie(i)
		for _, coreDefs := range dies[i] {
			for _, d := range coreDefs {
				switch d.kind {
				case defStruct:
					rep.Defects.Struct++
				case defDirect:
					rep.Defects.Direct++
				case defScan:
					rep.Defects.Scan++
				case defCKLogic:
					rep.Defects.CKLogic++
				case defHealed:
					rep.Defects.Healed++
				}
				// scan-cell faults need no simulation: the chain flush
				// test catches them before any pattern is applied
				if (d.kind == defStruct || d.kind == defCKLogic) && !seen[d.fault] {
					seen[d.fault] = true
					unique = append(unique, d.fault)
				}
			}
		}
	}
	slices.SortFunc(unique, netlist.CompareFaults)
	rep.UniqueFaults = len(unique)

	// 2. One campaign over the deduplicated fault list — the shared
	// resilient machinery: worker pool, chunk-granular cancellation,
	// checkpoint journal, panic isolation.
	resOf := make(map[netlist.Fault]fault.Result, len(unique))
	if len(unique) > 0 {
		camp := fault.NewCampaign(e.tp.Gen.Sim, fault.CampaignConfig{Workers: e.cfg.Workers})
		results, st, err := camp.RunCheckpoint(ctx, ck, unique)
		rep.Stats = st
		if err != nil {
			return rep, err
		}
		for i, f := range unique {
			resOf[f] = results[i]
		}
	}

	// 3. Serial lifecycle walk; per-die aggregates feed the CIs.
	dieYAT := make([]float64, e.cfg.Dies)
	dieFunc := make([]float64, e.cfg.Dies)
	for i, perCore := range dies {
		for _, defs := range perCore {
			fate, ipc, err := e.coreLifecycle(defs, resOf)
			if err != nil {
				return rep, err
			}
			switch fate {
			case fateClean:
				rep.Counts.Clean++
			case fateDegraded:
				rep.Counts.Degraded++
			case fateChainFail:
				rep.Counts.ChainFail++
			case fateArrayDead:
				rep.Counts.ArrayDead++
			case fateChipkill:
				rep.Counts.Chipkill++
			case fateAmbiguous:
				rep.Counts.Ambiguous++
			case fateDead:
				rep.Counts.Dead++
			case fateFieldFail:
				rep.Counts.FieldFail++
			}
			if fate == fateClean || fate == fateDegraded {
				dieYAT[i] += ipc
				dieFunc[i]++
			}
		}
		dieFunc[i] /= float64(e.cores)
	}

	// 4. Fleet statistics and the analytic side of the comparison.
	rep.EmpYield, rep.EmpYieldCI = meanCI(dieFunc)
	rep.EmpYAT, rep.EmpYATCI = meanCI(dieYAT)
	rep.AnaYield = yield.MixGammaAlpha(yield.Alpha, func(x float64) float64 {
		return e.resc.Yield(e.density * x)
	})
	rep.AnaChip = yield.ChipAlpha(e.cfg.Node, e.cfg.Stagnate, e.cfg.Growth, e.refBase, e.refResc, yield.Alpha)
	return rep, nil
}

// fate is one core's lifecycle outcome.
type fate uint8

const (
	fateClean fate = iota
	fateDegraded
	fateChainFail
	fateArrayDead
	fateChipkill
	fateAmbiguous
	fateDead
	fateFieldFail
)

// coreLifecycle runs one core through test, diagnosis, map-out, and
// scoring. It mirrors the manufacturing order: chain flush first, then
// the self-heal BIST, then the ATPG pattern set.
func (e *Engine) coreLifecycle(defs []defect, resOf map[netlist.Fault]fault.Result) (fate, float64, error) {
	if len(defs) == 0 {
		return fateClean, e.ipcOf(yield.CoreConfig{}), nil
	}

	// Chain flush: a scan-cell defect means the chain does not shift —
	// no diagnosis is possible and scan is chipkill by construction.
	for _, d := range defs {
		if d.kind == defScan {
			return fateChainFail, 0, nil
		}
	}

	// Self-heal BIST: defects in healed structures consume capacity.
	var arr *selfheal.Array
	for _, d := range defs {
		if d.kind != defHealed {
			continue
		}
		if arr == nil {
			var err error
			arr, err = selfheal.New(e.cfg.HealEntries, e.cfg.HealSpares)
			if err != nil {
				return 0, 0, err
			}
		}
		if err := arr.MarkFaulty(d.entry); err != nil {
			return 0, 0, err
		}
	}
	if arr != nil && !arr.Alive() {
		return fateArrayDead, 0, nil
	}

	// Scan test: union of failing bits across the pattern set, then the
	// single-lookup diagnosis with conservative chipkill fallback.
	var obs []int
	for _, d := range defs {
		if d.kind != defStruct && d.kind != defCKLogic {
			continue
		}
		if res := resOf[d.fault]; res.Detected {
			obs = append(obs, res.FailObs...)
		}
	}
	supers, ambiguous := Diagnose(e.sys.Audit, obs)
	if ambiguous {
		return fateAmbiguous, 0, nil
	}

	// Fault-map programming: diagnosis plus directly-attributed members.
	degr, err := core.MapOut(supers)
	if errors.Is(err, core.ErrChipkill) {
		return fateChipkill, 0, nil
	}
	if errors.Is(err, core.ErrDead) {
		return fateDead, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("fab: map-out of %v: %w", supers, err)
	}
	_ = degr // the member-identity set below carries the same information
	mapped := map[[2]int]bool{}
	for _, s := range supers {
		g, m, ok := memberOf(s)
		if !ok {
			return 0, 0, fmt.Errorf("fab: diagnosis implicated unknown super %q", s)
		}
		mapped[[2]int{int(g), m}] = true
	}
	for _, d := range defs {
		if d.kind == defDirect {
			mapped[[2]int{int(d.group), d.member}] = true
		}
	}
	var cfg yield.CoreConfig
	for key := range mapped {
		switch area.Group(key[0]) {
		case area.Frontend:
			cfg.FEDown++
		case area.IntIQ:
			cfg.IntIQDown++
		case area.FPIQ:
			cfg.FPIQDown++
		case area.LSQ:
			cfg.LSQDown++
		case area.IntBE:
			cfg.IntBEDown++
		case area.FPBE:
			cfg.FPBEDown++
		}
	}
	if cfg.FEDown > 1 || cfg.IntIQDown > 1 || cfg.FPIQDown > 1 ||
		cfg.LSQDown > 1 || cfg.IntBEDown > 1 || cfg.FPBEDown > 1 {
		return fateDead, 0, nil
	}

	// Test escapes: an undetected defect in a member that was NOT mapped
	// out stays active — the die ships and fails in the field. (An
	// escaped defect inside a disabled member is harmless.)
	for _, d := range defs {
		switch d.kind {
		case defCKLogic:
			// reaching here means no CHIPKILL diagnosis, so it escaped
			return fateFieldFail, 0, nil
		case defStruct:
			if !mapped[[2]int{int(d.group), d.member}] {
				return fateFieldFail, 0, nil
			}
		}
	}
	if len(mapped) == 0 {
		return fateClean, e.ipcOf(yield.CoreConfig{}), nil
	}
	return fateDegraded, e.ipcOf(cfg), nil
}

// ipcOf looks up a configuration's IPC (Full as the zero-config fallback).
func (e *Engine) ipcOf(cfg yield.CoreConfig) float64 {
	if v, ok := e.resc.IPC[cfg]; ok {
		return v
	}
	if cfg == (yield.CoreConfig{}) {
		return e.resc.Full
	}
	return 0
}

// meanCI returns the sample mean and its 95% normal confidence half-width.
func meanCI(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}
