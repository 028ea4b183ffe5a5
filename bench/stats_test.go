package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{3, 1}, 50); got != 1 {
		t.Errorf("p50 of two = %g, want the lower, 1", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ps := []float64{50, 90, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{3, 0, false},
		{19, 0, false},      // p50 rank 10, 9 beyond
		{20, 50, true},      // p50 rank 10, 10 beyond
		{99, 50, true},      // p90 rank 90, 9 beyond
		{100, 90, true},     // p90 rank 90, 10 beyond
		{741, 90, true},     // p99 rank 734, 7 beyond
		{1000, 99, true},    // p99 rank 990, 10 beyond
		{10000, 99.9, true}, // p99.9 rank 9990, 10 beyond
	} {
		got, ok := tailPercentile(tc.n, ps)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.0, 9.5, 9.1, 9.7, 8.8, 9.9, 9.3}, [3]float64{8.8, 9.3, 9.7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestBoundJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	shuffled := []float64{1.02, 0.98, 1.00, 0.99, 1.01, 1.00}
	lower := bound{rel: 0.10, lowerBetter: true}
	higher := bound{rel: 0.10}
	for _, tc := range []struct {
		name string
		bd   bound
		base []float64
		cand []float64
		want string
	}{
		{"same runs", lower, base, shuffled, unchanged},
		{"slower within bound", lower, base, scale(base, 1.05), unchanged},
		{"slower past bound", lower, base, scale(base, 1.20), regressed},
		{"faster, lower is better", lower, base, scale(base, 0.5), unchanged},
		{"fewer per second, higher is better", higher, base, scale(base, 0.8), regressed},
		{"more per second, higher is better", higher, base, scale(base, 1.2), unchanged},
		{"within absolute floor", bound{rel: 0.25, floor: 0.25, lowerBetter: true},
			scale(base, 0.003), scale(base, 0.005), unchanged},
		{"past absolute floor", bound{rel: 0.25, floor: 0.25, lowerBetter: true},
			scale(base, 0.003), scale(base, 1), regressed},
		{"spread wider than bound", lower, []float64{1, 2, 1, 2, 1, 2}, []float64{1, 2, 1, 2, 1, 2}, unresolved},
		{"wide but every new run better", lower, []float64{3, 4, 3, 4}, []float64{1, 2, 1, 2}, unchanged},
		{"no runs", lower, nil, base, unresolved},
	} {
		if got := tc.bd.judge(tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
