package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// worth reporting: a tail percentile resting on fewer is one or two jobs.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n samples: the smallest k with k/n >= p/100.
// Multiplying before dividing keeps integral p exact; the epsilon absorbs
// the rounding of fractional ones such as 99.9.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile is the nearest-rank p-th percentile of xs, 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyond counts the samples ranked above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailPercentile returns the highest of ps (ascending) that has at least
// minBeyond samples beyond it among n, and false when none has.
func tailPercentile(n int, ps []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ps {
		if beyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// quartiles returns the first, second and third quartile of xs by the
// method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive": positions i*(n+1)/4, linearly interpolated), so spreads
// printed here match the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// median is the middle quartile of xs.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// Verdicts of a comparison between a base set of runs and a new one.
const (
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// bound is how far a metric may worsen before a change counts as a
// regression: the larger of a share of the base median and an absolute
// floor, in the direction the metric gets worse.
type bound struct {
	rel         float64
	floor       float64
	lowerBetter bool
}

// worse reports how much worse b reads than a (positive = worse).
func (bd bound) worse(a, b float64) float64 {
	if bd.lowerBetter {
		return b - a
	}
	return a - b
}

// judge compares the new runs against the base runs. A spread wider than
// the bound on either side leaves the comparison unresolved, unless every
// new run reads better than every base run.
func (bd bound) judge(base, cand []float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return unresolved
	}
	allBetter := true
	for _, a := range base {
		for _, b := range cand {
			if bd.worse(a, b) >= 0 {
				allBetter = false
			}
		}
	}
	if allBetter {
		return unchanged
	}
	if spread(base) > bd.rel || spread(cand) > bd.rel {
		return unresolved
	}
	mb := median(base)
	if bd.worse(mb, median(cand)) > math.Max(bd.rel*math.Abs(mb), bd.floor) {
		return regressed
	}
	return unchanged
}
