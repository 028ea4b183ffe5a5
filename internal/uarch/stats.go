package uarch

import (
	"fmt"
	"strings"
)

// Occupancy accumulates structure-utilization statistics: average and peak
// occupancy of the windows whose sizes the Rescue transformations and
// map-outs change. These are the quantities that explain WHERE the 4%
// fault-free degradation and the degraded-mode losses come from.
type Occupancy struct {
	Cycles              int64
	IntIQSum, FPIQSum   int64
	LSQSum, ROBSum      int64
	IntIQPeak, FPIQPeak int
	LSQPeak, ROBPeak    int
	DispatchStallIQ     int64 // dispatch blocked on queue space
	DispatchStallROB    int64
	DispatchStallLSQ    int64
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sample records one cycle's occupancy.
func (o *Occupancy) sample(intIQ, fpIQ, lsq, rob int) {
	o.add(intIQ, fpIQ, lsq, rob, 1)
	o.IntIQPeak = maxi(o.IntIQPeak, intIQ)
	o.FPIQPeak = maxi(o.FPIQPeak, fpIQ)
	o.LSQPeak = maxi(o.LSQPeak, lsq)
	o.ROBPeak = maxi(o.ROBPeak, rob)
}

// add accumulates k cycles at the given occupancies into the sums; the
// peaks are sample's.
func (o *Occupancy) add(intIQ, fpIQ, lsq, rob int, k int64) {
	o.Cycles += k
	o.IntIQSum += int64(intIQ) * k
	o.FPIQSum += int64(fpIQ) * k
	o.LSQSum += int64(lsq) * k
	o.ROBSum += int64(rob) * k
}

// Avg returns the average occupancies (intIQ, fpIQ, lsq, rob).
func (o *Occupancy) Avg() (float64, float64, float64, float64) {
	if o.Cycles == 0 {
		return 0, 0, 0, 0
	}
	c := float64(o.Cycles)
	return float64(o.IntIQSum) / c, float64(o.FPIQSum) / c,
		float64(o.LSQSum) / c, float64(o.ROBSum) / c
}

// Occupancy returns the simulator's accumulated utilization statistics.
func (s *Sim) Occupancy() Occupancy { return s.occ }

// Report formats the run's statistics for humans.
func (s *Sim) Report() string {
	var b strings.Builder
	st := s.stats
	fmt.Fprintf(&b, "cycles %d  committed %d  IPC %.3f\n", st.Cycles, st.Committed, st.IPC())
	if st.BranchCount > 0 {
		fmt.Fprintf(&b, "branches %d  mispredicts %d (%.1f%%)  BTB redirects %d\n",
			st.BranchCount, st.Mispredicts,
			100*float64(st.Mispredicts)/float64(st.BranchCount), st.BTBRedirects)
	}
	fmt.Fprintf(&b, "L1D misses %d  shadow squashes %d\n", st.L1DMisses, st.MissSquashes)
	if s.P.Rescue {
		fmt.Fprintf(&b, "over-selection replays %d events / %d instructions\n",
			st.ReplayEvents, st.Replays)
	}
	i, f, l, r := s.occ.Avg()
	fmt.Fprintf(&b, "avg occupancy: intIQ %.1f/%d  fpIQ %.1f/%d  LSQ %.1f/%d  ROB %.1f/%d\n",
		i, s.P.IntIQSize, f, s.P.FPIQSize, l, s.P.LSQSize, r, s.P.ROBSize)
	fmt.Fprintf(&b, "peaks: intIQ %d  fpIQ %d  LSQ %d  ROB %d\n",
		s.occ.IntIQPeak, s.occ.FPIQPeak, s.occ.LSQPeak, s.occ.ROBPeak)
	fmt.Fprintf(&b, "dispatch stalls: IQ %d  ROB %d  LSQ %d\n",
		s.occ.DispatchStallIQ, s.occ.DispatchStallROB, s.occ.DispatchStallLSQ)
	return b.String()
}
