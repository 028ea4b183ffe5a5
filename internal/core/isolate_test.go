package core

import (
	"reflect"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/rtl"
)

var faultStatsZero fault.Stats

// TestIsolateCampaignWorkerDeterminism asserts the batch-parallel
// isolation campaign reproduces the serial sampling semantics exactly:
// identical reports (counts, per-stage breakdown, resample count) at any
// worker count.
func TestIsolateCampaignWorkerDeterminism(t *testing.T) {
	s := buildSmall(t, rtl.RescueDesign)
	tp := mustTestProgram(t, s, testCfg())

	ref := mustIsolate(t, s, tp, 25, Stages(), 99, 1)
	for _, workers := range []int{2, 8} {
		rep := mustIsolate(t, s, tp, 25, Stages(), 99, workers)
		// Stats carries wall time and worker counts; everything else must
		// match bit-for-bit.
		rep.Stats, ref.Stats = faultStatsZero, faultStatsZero
		if !reflect.DeepEqual(rep, ref) {
			t.Fatalf("workers=%d: report %+v != serial %+v", workers, rep, ref)
		}
	}

	okRef, totalRef := mustMultiFault(t, s, tp, 15, 3, 5, 1)
	for _, workers := range []int{2, 8} {
		ok, total := mustMultiFault(t, s, tp, 15, 3, 5, workers)
		if ok != okRef || total != totalRef {
			t.Fatalf("multi-fault workers=%d: %d/%d != serial %d/%d", workers, ok, total, okRef, totalRef)
		}
	}
}
