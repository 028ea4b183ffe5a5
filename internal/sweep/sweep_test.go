package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rescue/internal/flows"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// TestPaperPresetParams pins the sweep's fixed point: the paper preset
// derives exactly the Table 1 parameter sets the rest of the codebase
// hard-codes, so a sweep over it reproduces the goldens.
func TestPaperPresetParams(t *testing.T) {
	v, ok := Preset("paper")
	if !ok {
		t.Fatal("paper preset missing")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Perf.BaselineParams(), uarch.DefaultParams(); !reflect.DeepEqual(got, want) {
		t.Errorf("baseline params diverge from uarch.DefaultParams:\n got %+v\nwant %+v", got, want)
	}
	resc, err := v.Perf.RescueParams()
	if err != nil {
		t.Fatal(err)
	}
	if want := uarch.RescueParams(); !reflect.DeepEqual(resc, want) {
		t.Errorf("rescue params diverge from uarch.RescueParams:\n got %+v\nwant %+v", resc, want)
	}
}

// TestPresetsValidate sanity-checks every registered preset.
func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		v, ok := Preset(name)
		if !ok {
			t.Fatalf("Presets listed %q but Preset refused it", name)
		}
		if err := v.Validate(); err != nil {
			t.Errorf("preset %q: %v", name, err)
		}
	}
}

// TestExpandDeterminism pins the grid semantics: deterministic order and
// digests, axis-key sorting, and the single-point round trip used by
// remote dispatch.
func TestExpandDeterminism(t *testing.T) {
	spec := Spec{
		Presets:   []string{"paper", "lean-wakeup"},
		Axes:      map[string][]string{"scan-chains": {"1", "4"}, "comp-buf": {"2", "4"}},
		Nodes:     []int{18, 32},
		Stagnates: []int{90},
		Small:     true,
	}
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 2; len(a) != want {
		t.Fatalf("got %d points, want %d", len(a), want)
	}
	b, _ := spec.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	seen := map[string]bool{}
	for i, pt := range a {
		if pt.Index != i {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
		if seen[pt.Digest] {
			t.Errorf("duplicate digest %s", pt.Digest)
		}
		seen[pt.Digest] = true

		one := SinglePointSpec(spec, pt)
		pts, err := one.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 {
			t.Fatalf("single-point spec expanded to %d points", len(pts))
		}
		if pts[0].Digest != pt.Digest {
			t.Errorf("single-point digest %s != %s", pts[0].Digest, pt.Digest)
		}
	}
}

// TestExpandRejects pins the usage-error surface.
func TestExpandRejects(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no presets":     {},
		"unknown preset": {Presets: []string{"gigantic"}},
		"unknown axis":   {Presets: []string{"paper"}, Axes: map[string][]string{"cache-ways": {"2"}}},
		"empty axis":     {Presets: []string{"paper"}, Axes: map[string][]string{"comp-buf": {}}},
		"bad value":      {Presets: []string{"paper"}, Axes: map[string][]string{"comp-buf": {"two"}}},
		"bad replay":     {Presets: []string{"paper"}, Axes: map[string][]string{"replay": {"psychic"}}},
		"bad node":       {Presets: []string{"paper"}, Nodes: []int{45}},
		"bad stagnate":   {Presets: []string{"paper"}, Stagnates: []int{7}},
		"bad selfheal":   {Presets: []string{"paper"}, SelfHeal: []float64{1.5}},
		"invalid shape":  {Presets: []string{"paper"}, Axes: map[string][]string{"net-iq": {"7"}}},
		"bad chains":     {Presets: []string{"paper"}, Axes: map[string][]string{"scan-chains": {"0"}}},
	} {
		if _, err := spec.Expand(); err == nil {
			t.Errorf("%s: expansion should fail", name)
		}
	}
}

// tinySpec is the cheap grid the engine tests share: small netlist, a
// light fleet, two variants differing only in the chipkill-share knob —
// distinct points (different digests, yields, areas) that still share the
// netlist, ATPG, and perf-model artifacts, keeping each run to one ATPG
// campaign.
func tinySpec() Spec {
	return Spec{
		Presets: []string{"paper"},
		Axes:    map[string][]string{"chipkill-scale": {"1", "0.8"}},
		Nodes:   []int{18},
		Small:   true,
		Dies:    40,
		Warmup:  100,
		Commit:  500,
	}
}

func runNDJSON(t *testing.T, spec Spec, o Options) []byte {
	t.Helper()
	fr, err := Run(context.Background(), spec, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refOnce computes the tinySpec reference frontier once for every test
// that needs an uninterrupted local baseline.
var refOnce struct {
	sync.Once
	ndjson []byte
	err    error
}

func refNDJSON(t *testing.T) []byte {
	t.Helper()
	refOnce.Do(func() {
		spec := tinySpec()
		spec.Concurrency = 1
		fr, err := Run(context.Background(), spec, Options{Env: flows.Env{Store: flows.NewStore()}})
		if err != nil {
			refOnce.err = err
			return
		}
		var buf bytes.Buffer
		if refOnce.err = fr.WriteNDJSON(&buf); refOnce.err == nil {
			refOnce.ndjson = buf.Bytes()
		}
	})
	if refOnce.err != nil {
		t.Fatal(refOnce.err)
	}
	return refOnce.ndjson
}

// TestRunByteIdenticalAcrossConcurrency is the core determinism contract:
// the frontier NDJSON is byte-identical at any point concurrency.
func TestRunByteIdenticalAcrossConcurrency(t *testing.T) {
	spec := tinySpec()
	spec.Concurrency = 4
	seq := refNDJSON(t)
	par := runNDJSON(t, spec, Options{Env: flows.Env{Store: flows.NewStore()}})
	if !bytes.Equal(seq, par) {
		t.Fatalf("frontier differs across concurrency:\n-- conc 1 --\n%s\n-- conc 4 --\n%s", seq, par)
	}
	if len(bytes.Split(bytes.TrimSpace(seq), []byte("\n"))) != 2 {
		t.Fatalf("want 2 NDJSON lines:\n%s", seq)
	}
}

// TestRunResume pins the kill/resume contract: interrupt a sweep after
// its first completed point, resume into the same checkpoint directory,
// and get byte-identical NDJSON — with the completed point served from
// the journal, not recomputed.
func TestRunResume(t *testing.T) {
	spec := tinySpec()
	spec.Concurrency = 1
	want := refNDJSON(t)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := Run(ctx, spec, Options{
		Env:           flows.Env{Store: flows.NewStore()},
		CheckpointDir: dir,
		OnPoint: func(ev PointEvent) {
			if ev.Phase == "done" {
				once.Do(cancel)
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run should fail")
	}
	if _, err := os.Stat(filepath.Join(dir, frontierJournal)); err != nil {
		t.Fatalf("journal should survive the interrupt: %v", err)
	}

	var cached int
	got := runNDJSON(t, spec, Options{
		Env:           flows.Env{Store: flows.NewStore()},
		CheckpointDir: dir,
		Resume:        true,
		OnPoint: func(ev PointEvent) {
			if ev.Phase == "cached" {
				cached++
			}
		},
	})
	if cached == 0 {
		t.Fatal("resume recomputed every point — journal unused")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed frontier differs:\n-- fresh --\n%s\n-- resumed --\n%s", want, got)
	}
	if _, err := os.Stat(filepath.Join(dir, frontierJournal)); !os.IsNotExist(err) {
		t.Fatal("journal should be removed after clean completion")
	}
}

// TestRunRefusesStaleJournal mirrors the flow CLIs: an existing journal
// without resume is an error, never silently clobbered.
func TestRunRefusesStaleJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, frontierJournal), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), tinySpec(), Options{Env: flows.Env{Store: flows.NewStore()}, CheckpointDir: dir})
	if err == nil {
		t.Fatal("existing journal without resume should be refused")
	}
}

// TestStoreSharing is the cross-variant artifact-sharing contract: two
// sweep points that differ only in technology node share the netlist and
// ATPG artifacts (one build each), while points with different variants
// never collide.
func TestStoreSharing(t *testing.T) {
	store := flows.NewStore()
	spec := tinySpec()
	spec.Axes = nil // one variant...
	spec.Nodes = []int{18, 32}
	spec.Stagnates = []int{90, 65}
	spec.Concurrency = 4

	fr, err := Run(context.Background(), spec, Options{Env: flows.Env{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 4 {
		t.Fatalf("got %d points", len(fr.Points))
	}
	// Shared prefixes build exactly once: 1 system + 1 test program for
	// the single variant, plus one perf model per node (stagnation and
	// self-heal axes reuse everything).
	if got, want := store.Builds(), int64(1+1+2); got != want {
		t.Errorf("store builds = %d, want %d (1 system + 1 ATPG + 2 perf models)", got, want)
	}

	// Same variant again → the same artifact instance; a different
	// variant (scan split) → a different artifact under its own key.
	env := flows.Env{Store: store}
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	v := pts[0].Variant
	s1, err := env.System(v.Netlist, v.ScanChains, rtl.RescueDesign)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := env.System(v.Netlist, v.ScanChains, rtl.RescueDesign)
	if s1 != s2 {
		t.Fatal("same build inputs built twice")
	}
	if got := store.Builds(); got != 4 {
		t.Errorf("warm System calls triggered builds: %d", got)
	}
	split := v
	split.ScanChains = 4
	s3, err := env.System(split.Netlist, split.ScanChains, rtl.RescueDesign)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("different variants collided in the store")
	}
	if s3.Chain.NumChains != 4 {
		t.Fatalf("variant build ignored the scan split: %d chains", s3.Chain.NumChains)
	}
	if got := store.Builds(); got != 5 {
		t.Errorf("scan-split system: store builds = %d, want 5", got)
	}
}

// TestControlCancelPoint pins per-point cancellation: the canceled point
// reports canceled, everything else completes, and unknown digests are
// refused.
func TestControlCancelPoint(t *testing.T) {
	spec := tinySpec()
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewControl(pts)
	if ctl.CancelPoint("nope") {
		t.Fatal("unknown digest should be refused")
	}
	// Cancel the second point while the first runs: the pre-armed cancel
	// takes effect when the point is scheduled.
	done := make(chan struct{})
	var fr *Frontier
	var runErr error
	go func() {
		defer close(done)
		fr, runErr = Run(context.Background(), spec, Options{
			Env:     flows.Env{Store: flows.NewStore()},
			Control: ctl,
			OnPoint: func(ev PointEvent) {
				if ev.Index == 0 && ev.Phase == "start" {
					if !ctl.CancelPoint(pts[1].Digest) {
						t.Error("registered digest refused")
					}
				}
			},
		})
	}()
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !fr.Points[1].Canceled {
		t.Fatal("point 1 should be canceled")
	}
	if fr.Points[0].Canceled || fr.Points[0].Error != "" || fr.Points[0].EmpYield == 0 {
		t.Fatalf("point 0 should have completed normally: %+v", fr.Points[0])
	}
	if fr.Points[1].Pareto {
		t.Fatal("canceled points cannot be on the Pareto front")
	}
}

// TestControlCancelBeforeRun: a control knows its whole grid from the
// moment it exists, so a cancel that lands after the serving layer
// publishes it but before Run starts is accepted, and that point ends
// canceled while the rest of the grid completes.
func TestControlCancelBeforeRun(t *testing.T) {
	spec := tinySpec()
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewControl(pts)
	if !ctl.CancelPoint(pts[0].Digest) {
		t.Fatal("grid digest refused before Run started")
	}
	fr, err := Run(context.Background(), spec, Options{Env: flows.Env{Store: flows.NewStore()}, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Points[0].Canceled {
		t.Fatalf("point 0 should be canceled: %+v", fr.Points[0])
	}
	if fr.Points[1].Canceled || fr.Points[1].Error != "" || fr.Points[1].EmpYield == 0 {
		t.Fatalf("point 1 should have completed normally: %+v", fr.Points[1])
	}
}

// TestRunRemote pins the dispatch contract: a remote hook that executes
// single-point specs produces a frontier byte-identical to a local run,
// and a worker answering with the wrong point is rejected (falling back
// to local execution, which still converges).
func TestRunRemote(t *testing.T) {
	spec := tinySpec()
	want := refNDJSON(t)

	// Well-behaved worker: run each single-point spec against the
	// worker's shared store, exactly like a worker daemon would.
	var remoteCalls int
	var mu sync.Mutex
	workerStore := flows.NewStore()
	remote := func(ctx context.Context, one Spec, pt Point) ([]byte, error) {
		mu.Lock()
		remoteCalls++
		mu.Unlock()
		fr, err := Run(ctx, one, Options{Env: flows.Env{Store: workerStore}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := fr.WriteNDJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	got := runNDJSON(t, spec, Options{Env: flows.Env{Store: flows.NewStore()}, Remote: remote})
	if remoteCalls != 2 {
		t.Fatalf("remote hook called %d times, want 2", remoteCalls)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote frontier differs:\n-- local --\n%s\n-- remote --\n%s", want, got)
	}

	// Lying worker: returns a different point's bytes. The engine must
	// reject the digest mismatch and fall back to local execution.
	var fallbacks int
	lyingStore := flows.NewStore()
	lying := func(ctx context.Context, one Spec, pt Point) ([]byte, error) {
		other := spec
		other.Axes = map[string][]string{"chipkill-scale": {"1.5"}}
		fr, err := Run(ctx, other, Options{Env: flows.Env{Store: lyingStore}})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fr.WriteNDJSON(&buf)
		return buf.Bytes(), nil
	}
	got = runNDJSON(t, spec, Options{Env: flows.Env{Store: flows.NewStore()}, Remote: lying,
		OnPoint: func(ev PointEvent) {
			if ev.Phase == "fallback" {
				fallbacks++
			}
		}})
	if fallbacks == 0 {
		t.Fatal("digest mismatch should trigger local fallback")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fallback frontier differs from local run")
	}
}

// TestPaperPointMatchesFab pins the acceptance criterion that the paper
// preset reproduces the existing fab flow's numbers exactly: same fleet
// knobs, same yield, same YAT. It then pins that the two share artifacts:
// the fab flow run on the sweep's store builds nothing and prints the same
// bytes, because every artifact is keyed by its build inputs, not by which
// caller asked.
func TestPaperPointMatchesFab(t *testing.T) {
	opts := flows.FabOpts{Dies: 60, Small: true, Warmup: 200, Commit: 1000}
	var fresh bytes.Buffer
	res, err := flows.Fab(context.Background(), &fresh, opts, flows.Env{})
	if err != nil {
		t.Fatal(err)
	}

	store := flows.NewStore()
	spec := Spec{Presets: []string{"paper"}, Small: true, Dies: 60, Warmup: 200, Commit: 1000}
	fr, err := Run(context.Background(), spec, Options{Env: flows.Env{Store: store}})
	if err != nil {
		t.Fatal(err)
	}
	p := fr.Points[0]
	rep := res.Report
	if p.EmpYield != rep.EmpYield || p.EmpYAT != rep.EmpYAT || p.AnaYield != rep.AnaYield || p.AnaYAT != rep.AnaChip.Rescue {
		t.Fatalf("paper point diverges from the fab flow:\nsweep yield %v yat %v (ana %v / %v)\nfab   yield %v yat %v (ana %v / %v)",
			p.EmpYield, p.EmpYAT, p.AnaYield, p.AnaYAT,
			rep.EmpYield, rep.EmpYAT, rep.AnaYield, rep.AnaChip.Rescue)
	}
	if p.CoreArea != rep.CoreArea || p.Cores != rep.Cores {
		t.Fatalf("paper point area diverges: sweep %v/%d, fab %v/%d", p.CoreArea, p.Cores, rep.CoreArea, rep.Cores)
	}

	builds := store.Builds()
	var warm bytes.Buffer
	if _, err := flows.Fab(context.Background(), &warm, opts, flows.Env{Store: store}); err != nil {
		t.Fatal(err)
	}
	if got := store.Builds(); got != builds {
		t.Errorf("fab flow after the paper point built %d artifacts, want 0", got-builds)
	}
	if !bytes.Equal(warm.Bytes(), fresh.Bytes()) {
		t.Fatalf("fab output on the sweep's store differs:\n-- fresh --\n%s\n-- shared --\n%s", fresh.Bytes(), warm.Bytes())
	}
}

// TestFrontierRoundTrip pins that NDJSON parse→serialize is the identity,
// which is what lets remote results merge byte-identically.
func TestFrontierRoundTrip(t *testing.T) {
	raw := refNDJSON(t)
	fr, err := ParseNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("NDJSON round trip not identity:\n-- in --\n%s\n-- out --\n%s", raw, buf.Bytes())
	}
}
