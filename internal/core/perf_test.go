package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"rescue/internal/area"
	"rescue/internal/fault"
	"rescue/internal/uarch"
	"rescue/internal/workload"
	"rescue/internal/yield"
)

// TestPerfModelCollapse pins the perf model's one-simulation-per-machine
// collapse: on all 23 profiles at one node, every baseline and Rescue
// entry must be bit-equal to a direct simulation of its own job, the
// progress hook must count 1,015 simulations (13 FP benchmarks x 65 + 10
// FP-free x 17, not 23 x 65), and an invalid Rescue machine must fail
// with the first error a job-by-job build meets.
func TestPerfModelCollapse(t *testing.T) {
	const warmup, commit = 500, 2000
	node := area.Node(90)
	ns := ScaleFor(node)
	cfgs := yield.Configs()

	var mu sync.Mutex
	var total, maxDone int64
	ctx := fault.WithProgress(context.Background(), func(done, tot int64) {
		mu.Lock()
		defer mu.Unlock()
		total, maxDone = tot, max(maxDone, done)
	})
	pm, err := BuildPerfModelFlow(ctx, node, nil, warmup, commit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1015 || maxDone != 1015 {
		t.Errorf("progress reached %d of %d simulations, want 1015 of 1015", maxDone, total)
	}

	direct := func(t *testing.T, prog *workload.Program, p uarch.Params) float64 {
		s, err := uarch.NewFromSource(p, prog.Gen())
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(warmup, commit).IPC()
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, prof := range workload.Benchmarks() {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			prog := workload.Compile(prof)
			if got, want := pm.Baseline[prof.Name], direct(t, prog, ns.apply(uarch.DefaultParams())); !same(got, want) {
				t.Errorf("baseline IPC %v, direct %v", got, want)
			}
			if n := len(pm.Rescue[prof.Name]); n != len(cfgs) {
				t.Fatalf("%d Rescue entries, want %d", n, len(cfgs))
			}
			for _, c := range cfgs {
				p := ns.apply(uarch.RescueParams())
				p.Degr = toDegraded(c)
				if got, want := pm.Rescue[prof.Name][c], direct(t, prog, p); !same(got, want) {
					t.Errorf("%v: Rescue IPC %v, direct %v", p.Degr, got, want)
				}
			}
		})
	}

	t.Run("invalid-rescue", func(t *testing.T) {
		t.Parallel()
		benches := []string{"gzip", "swim"}
		resc := uarch.RescueParams()
		resc.Ways = 2
		var want error
		for _, name := range benches {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := workload.Compile(prof)
			for c := -1; c < len(cfgs) && want == nil; c++ {
				p := ns.apply(uarch.DefaultParams())
				if c >= 0 {
					p = ns.apply(resc)
					p.Degr = toDegraded(cfgs[c])
				}
				_, want = uarch.NewFromSource(p, prog.Gen())
			}
		}
		if want == nil {
			t.Fatal("no job of a 2-way Rescue machine failed")
		}
		_, err := BuildPerfModelFlowParams(context.Background(), node, uarch.DefaultParams(), resc, benches, warmup, commit, 0)
		if !reflect.DeepEqual(err, want) {
			t.Fatalf("error %v, want the first failing job's %v", err, want)
		}
	})
}
