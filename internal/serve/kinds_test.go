package serve

import (
	"strings"
	"testing"

	"rescue/internal/flows"
)

// TestKindParamsWireNames pins the fixed kinds' param names, which are the
// flows options' JSON tags: every name lands in its option, and names the
// options do not carry on the wire — fab's GrowthSet and BenchSet, the Go
// field names behind renamed tags — stay unknown-field errors.
func TestKindParamsWireNames(t *testing.T) {
	var t3 flows.Table3Opts
	mustDecode(t, `{"small":true,"seed":3,"backtracks":7,"workers":2,"timing":true}`, &t3)
	if want := (flows.Table3Opts{Small: true, Seed: 3, Backtracks: 7, Workers: 2, Timing: true}); t3 != want {
		t.Fatalf("table3 params decoded to %+v, want %+v", t3, want)
	}
	var d flows.DictOpts
	mustDecode(t, `{"small":true,"workers":2}`, &d)
	if want := (flows.DictOpts{Small: true, Workers: 2}); d != want {
		t.Fatalf("dict params decoded to %+v, want %+v", d, want)
	}
	var iso flows.IsolationOpts
	mustDecode(t, `{"small":true,"perStage":50,"seed":7,"multi":true,"workers":2,"timing":true}`, &iso)
	if want := (flows.IsolationOpts{Small: true, PerStage: 50, Seed: 7, Multi: true, Workers: 2, Timing: true}); iso != want {
		t.Fatalf("isolation params decoded to %+v, want %+v", iso, want)
	}
	var y flows.YATOpts
	mustDecode(t, `{"stagnate":180,"bench":"gcc","warmup":500,"commit":2000,"workers":2,"timing":true}`, &y)
	if want := (flows.YATOpts{StagnateNM: 180, Bench: "gcc", Warmup: 500, Commit: 2000, Workers: 2, Timing: true}); y != want {
		t.Fatalf("yat params decoded to %+v, want %+v", y, want)
	}
	var f flows.FabOpts
	mustDecode(t, `{"dies":100,"node":32,"stagnate":65,"growth":0.5,"seed":9,"workers":2,"small":true,`+
		`"bench":"gzip","warmup":500,"commit":2000,"selfhealShare":0.25,"timing":true}`, &f)
	if want := (flows.FabOpts{Dies: 100, NodeNM: 32, StagnateNM: 65, Growth: 0.5, Seed: 9, Workers: 2, Small: true,
		Bench: "gzip", Warmup: 500, Commit: 2000, SelfHealShare: 0.25, Timing: true}); f != want {
		t.Fatalf("fab params decoded to %+v, want %+v", f, want)
	}

	for _, tc := range []struct {
		params string
		into   any
	}{
		{`{"growthSet":true}`, &flows.FabOpts{}},
		{`{"benchSet":true}`, &flows.FabOpts{}},
		{`{"nodeNM":18}`, &flows.FabOpts{}},
		{`{"stagnateNM":90}`, &flows.YATOpts{}},
		{`{"smal":true}`, &flows.Table3Opts{}},
	} {
		err := decode([]byte(tc.params), tc.into)
		if err == nil || !strings.Contains(err.Error(), "bad params") || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("%s into %T: err %v, want a bad-params unknown-field error", tc.params, tc.into, err)
		}
	}
}

func mustDecode(t *testing.T, params string, into any) {
	t.Helper()
	if err := decode([]byte(params), into); err != nil {
		t.Fatalf("%s: %v", params, err)
	}
}
