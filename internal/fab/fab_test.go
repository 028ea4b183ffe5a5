package fab

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/ici"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/selfheal"
	"rescue/internal/yield"
)

// The reduced-configuration system and its test program are expensive to
// build (scan insertion + full ATPG), so every test shares one fixture.
var (
	fixOnce sync.Once
	fixSys  *core.System
	fixTP   *core.TestProgram
	fixErr  error
)

func fixture(t *testing.T) (*core.System, *core.TestProgram) {
	t.Helper()
	fixOnce.Do(func() {
		fixSys, fixErr = core.Build(rtl.Small(), rtl.RescueDesign)
		if fixErr != nil {
			return
		}
		fixTP, fixErr = fixSys.GenerateTestsFlow(context.Background(), atpg.DefaultGenConfig(), nil)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixSys, fixTP
}

// syntheticModels builds reference CoreModels with the real area split but
// a closed-form IPC table, so engine tests do not need uarch simulations.
func syntheticModels() (base, resc yield.CoreModel) {
	base = yield.CoreModel{Area: area.BaselineWithScan(), Full: 2.0}
	resc = yield.CoreModel{Area: area.Rescue(), IPC: map[yield.CoreConfig]float64{}}
	for _, c := range yield.Configs() {
		downs := c.FEDown + c.IntIQDown + c.FPIQDown + c.LSQDown + c.IntBEDown + c.FPBEDown
		resc.IPC[c] = 1.9 * math.Pow(0.8, float64(downs))
	}
	resc.Full = resc.IPC[yield.CoreConfig{}]
	return base, resc
}

func runFleet(t *testing.T, cfg Config, ck *fault.Checkpoint) (*FleetReport, error) {
	t.Helper()
	sys, tp := fixture(t)
	base, resc := syntheticModels()
	eng, err := New(sys, tp, base, resc, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng.Run(context.Background(), ck)
}

func smallConfig(dies, workers int) Config {
	return Config{
		Dies: dies, Node: area.Node(18), Stagnate: area.Node(90),
		Growth: 0.30, Seed: 2026, Workers: workers,
	}
}

// stripStats clears the fields that legitimately vary across worker
// counts and resume cycles (wall clock, rehydration counts).
func stripStats(r *FleetReport) *FleetReport {
	c := *r
	c.Stats = fault.Stats{}
	return &c
}

func TestFleetWorkerDeterminism(t *testing.T) {
	ref, err := runFleet(t, smallConfig(400, 1), nil)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, w := range []int{2, 8} {
		got, err := runFleet(t, smallConfig(400, w), nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(stripStats(ref), stripStats(got)) {
			t.Fatalf("workers=%d fleet differs from workers=1:\n  %+v\nvs\n  %+v", w, ref, got)
		}
	}
}

func TestFleetKillResume(t *testing.T) {
	ref, err := runFleet(t, smallConfig(400, 2), nil)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "fab.ck")
	defer fault.ChaosCancelAfterSims(0)
	fault.ChaosCancelAfterSims(int64(ref.UniqueFaults)/2 + 1)
	_, err = runFleet(t, smallConfig(400, 1), fault.NewCheckpoint(path))
	fault.ChaosCancelAfterSims(0)
	if err == nil {
		t.Fatalf("chaos budget did not interrupt the campaign")
	}
	if !fault.Interrupted(err) {
		t.Fatalf("interrupted run failed hard: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("no journal written at %s: %v", path, err)
	}

	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("reload journal: %v", err)
	}
	got, err := runFleet(t, smallConfig(400, 8), ck)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got.Stats.Rehydrated == 0 {
		t.Fatalf("resume did not rehydrate any journaled work")
	}
	if !reflect.DeepEqual(stripStats(ref), stripStats(got)) {
		t.Fatalf("resumed fleet differs from uninterrupted:\n  %+v\nvs\n  %+v", ref, got)
	}
}

// TestFleetConvergence pins the acceptance criterion at test scale: the
// empirical fleet yield and YAT converge to within 3% relative of the
// analytic EQ 2/3 model at the 18nm node. The seed is fixed, so this is a
// deterministic regression guard, not a flaky statistical assertion.
func TestFleetConvergence(t *testing.T) {
	rep, err := runFleet(t, smallConfig(6000, 0), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rep.Counts.Clean + rep.Counts.Degraded + rep.Counts.ChainFail +
		rep.Counts.ArrayDead + rep.Counts.Chipkill + rep.Counts.Ambiguous +
		rep.Counts.Dead + rep.Counts.FieldFail; got != rep.Dies*rep.Cores {
		t.Fatalf("fates sum to %d, want %d", got, rep.Dies*rep.Cores)
	}
	if rel := math.Abs(rep.EmpYield/rep.AnaYield - 1); rel > 0.03 {
		t.Errorf("core yield off by %.2f%%: empirical %.4f vs analytic %.4f",
			rel*100, rep.EmpYield, rep.AnaYield)
	}
	if rel := math.Abs(rep.EmpYAT/rep.AnaChip.Rescue - 1); rel > 0.03 {
		t.Errorf("chip YAT off by %.2f%%: empirical %.4f vs analytic %.4f",
			rel*100, rep.EmpYAT, rep.AnaChip.Rescue)
	}
	// the corners the tentpole exists to exercise must all occur
	if rep.Counts.Degraded == 0 || rep.Counts.ChainFail == 0 ||
		rep.Counts.Chipkill == 0 || rep.Counts.Dead == 0 {
		t.Errorf("expected every lifecycle corner at fleet scale, got %+v", rep.Counts)
	}
}

// TestFleetSelfHeal drives the selfheal.Array integration: with a tiny
// spare-less array, clustered defects exhaust capacity and kill cores;
// one spare is enough to keep every array alive (capacity >= 1 always).
func TestFleetSelfHeal(t *testing.T) {
	cfg := smallConfig(800, 0)
	cfg.SelfHealShare = 0.6
	cfg.HealEntries = 2
	cfg.HealSpares = 0
	rep, err := runFleet(t, cfg, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Defects.Healed == 0 {
		t.Fatalf("self-heal share produced no healed defects: %+v", rep.Defects)
	}
	if rep.Counts.ArrayDead == 0 {
		t.Errorf("2-entry spare-less arrays never exhausted: %+v", rep.Counts)
	}

	cfg.HealSpares = 1
	rep2, err := runFleet(t, cfg, nil)
	if err != nil {
		t.Fatalf("run with spare: %v", err)
	}
	if rep2.Counts.ArrayDead != 0 {
		t.Errorf("one spare still exhausted %d arrays", rep2.Counts.ArrayDead)
	}

	// remap determinism: the same seed reproduces the fleet exactly
	rep3, err := runFleet(t, cfg, nil)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !reflect.DeepEqual(stripStats(rep2), stripStats(rep3)) {
		t.Fatalf("same seed produced different fleets")
	}
}

// TestSelfHealArrayUnderFabDefects drives selfheal.Array exactly the way
// coreLifecycle does — MarkFaulty per healed defect, Alive() as the
// live/dead verdict — and cross-checks against InjectRandom: the same
// defect stream or seed must always produce the same capacity, remap
// assignment, and Alive() flip, independent of how often it is replayed.
func TestSelfHealArrayUnderFabDefects(t *testing.T) {
	// Exhaustion boundary under the fab's mark-per-defect discipline:
	// with s spares, Alive() holds until every entry is faulty, and the
	// first s marks are remapped (capacity stays full that long).
	a, err := selfheal.New(4, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	marks := []int{2, 0, 3, 1}
	for i, m := range marks {
		if !a.Alive() {
			t.Fatalf("array died after %d/%d marks", i, len(marks))
		}
		if err := a.MarkFaulty(m); err != nil {
			t.Fatalf("MarkFaulty(%d): %v", m, err)
		}
		wantCap := 4 - max(0, i+1-2) // first 2 marks absorbed by spares
		if got := a.EffectiveCapacity(); got != wantCap {
			t.Fatalf("after %d marks capacity = %d, want %d", i+1, got, wantCap)
		}
	}
	if !a.Alive() {
		t.Fatalf("4 faults with 2 spares should leave capacity 2, not kill the array")
	}

	// InjectRandom reproducibility: same (frac, seed) on fresh arrays is
	// bit-identical; replaying the fab's MarkFaulty stream on top changes
	// nothing that InjectRandom already marked.
	mk := func() *selfheal.Array {
		b, err := selfheal.New(64, 3)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		b.InjectRandom(0.2, 7)
		return b
	}
	b1, b2 := mk(), mk()
	if b1.FaultyCount() == 0 {
		t.Fatalf("InjectRandom(0.2) marked nothing")
	}
	for i := 0; i < 64; i++ {
		if b1.Usable(i) != b2.Usable(i) {
			t.Fatalf("entry %d usability differs across identical seeds", i)
		}
	}
	if b1.EffectiveCapacity() != b2.EffectiveCapacity() || b1.Alive() != b2.Alive() {
		t.Fatalf("identical seeds produced different capacity/liveness")
	}
}

func TestDiagnose(t *testing.T) {
	audit := &ici.AuditResult{
		BitSuper:   []string{"FE0", "", "IQ1", "IQ1"},
		Violations: []ici.AuditViolation{{Obs: 3, Supers: []string{"FE0", "IQ1"}}},
	}
	if supers, amb := Diagnose(audit, []int{0, 2}); amb || !reflect.DeepEqual(supers, []string{"FE0", "IQ1"}) {
		t.Fatalf("clean diagnosis got %v amb=%v", supers, amb)
	}
	if supers, amb := Diagnose(audit, nil); amb || len(supers) != 0 {
		t.Fatalf("empty diagnosis got %v amb=%v", supers, amb)
	}
	for _, bad := range [][]int{{1}, {3}, {-1}, {4}, {0, 1}} {
		if _, amb := Diagnose(audit, bad); !amb {
			t.Errorf("failObs %v should be ambiguous", bad)
		}
	}
}

func TestChainFail(t *testing.T) {
	gate := netlist.Fault{Gate: 3, Pin: 0}
	ff := netlist.Fault{Gate: -1, FF: 2}
	if ChainFail([]netlist.Fault{gate}) {
		t.Fatalf("gate fault should not fail the chain flush")
	}
	if !ChainFail([]netlist.Fault{gate, ff}) {
		t.Fatalf("FF fault must fail the chain flush")
	}
}

func TestConfigValidation(t *testing.T) {
	sys, tp := fixture(t)
	base, resc := syntheticModels()
	for _, cfg := range []Config{
		{Dies: 0, Node: area.Node(18), Stagnate: area.Node(90), Growth: 0.3},
		{Dies: 10, Node: area.Node(18), Stagnate: area.Node(90), Growth: -0.1},
		{Dies: 10, Node: area.Node(18), Stagnate: area.Node(90), Growth: 0.3, SelfHealShare: 1.0},
		{Dies: 10, Node: area.Node(18), Stagnate: area.Node(90), Growth: 0.3, Workers: -1},
	} {
		if _, err := New(sys, tp, base, resc, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}
