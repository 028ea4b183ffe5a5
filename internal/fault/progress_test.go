package fault

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCampaignProgressHook pins the ProgressFunc contract for a hook
// attached with WithProgress: monotone cumulative counts, a fixed total,
// and a final call with done == total.
func TestCampaignProgressHook(t *testing.T) {
	sim, u := rescueSim(t, 2, 7)
	faults := u.Collapsed[:200]

	t.Run("context", func(t *testing.T) {
		var mu sync.Mutex
		var calls int
		var last, lastTotal int64
		ctx := WithProgress(context.Background(), func(done, total int64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done < last {
				t.Errorf("progress went backwards: %d after %d", done, last)
			}
			last, lastTotal = done, total
		})
		camp := NewCampaign(sim, CampaignConfig{Workers: 2})
		if _, _, err := camp.RunCheckpoint(ctx, nil, faults); err != nil {
			t.Fatal(err)
		}
		if calls == 0 {
			t.Fatal("progress hook never called")
		}
		want := int64(len(faults))
		if last != want || lastTotal != want {
			t.Fatalf("final progress = (%d, %d), want (%d, %d)", last, lastTotal, want, want)
		}
	})
}

// TestCampaignProgressRehydrated asserts that a resumed run reports its
// journaled work up front: the first hook call already includes the
// rehydrated fault count.
func TestCampaignProgressRehydrated(t *testing.T) {
	sim, u := rescueSim(t, 2, 9)
	faults := u.Collapsed[:120]
	dir := t.TempDir()

	// First run: complete, journaled.
	ck, err := OpenCheckpoint(dir+"/p.ck", false)
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(sim, CampaignConfig{Workers: 1})
	if _, _, err := camp.RunCheckpoint(context.Background(), ck, faults); err != nil {
		t.Fatal(err)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	// Resume: everything rehydrates; the hook must still see done == total.
	ck2, err := OpenCheckpoint(dir+"/p.ck", true)
	if err != nil {
		t.Fatal(err)
	}
	var first, calls int64
	ctx := WithProgress(context.Background(), func(done, total int64) {
		if atomic.AddInt64(&calls, 1) == 1 {
			atomic.StoreInt64(&first, done)
		}
	})
	camp2 := NewCampaign(sim, CampaignConfig{Workers: 1})
	_, st, err := camp2.RunCheckpoint(ctx, ck2, faults)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rehydrated != int64(len(faults)) {
		t.Fatalf("rehydrated %d, want %d", st.Rehydrated, len(faults))
	}
	if atomic.LoadInt64(&first) != int64(len(faults)) {
		t.Fatalf("first progress call reported %d, want the full rehydrated %d",
			atomic.LoadInt64(&first), len(faults))
	}
}

// TestCampaignProgressUnsetIdentical asserts the nil-hook path changes
// nothing: results with and without a hook are identical (the performance
// side of the no-overhead guarantee is pinned by BenchmarkFaultCampaign's
// progress sub-benchmarks at the module root).
func TestCampaignProgressUnsetIdentical(t *testing.T) {
	sim, u := rescueSim(t, 2, 11)
	faults := u.Collapsed[:150]

	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	ref, _ := mustRun(t, camp, faults)

	ctx := WithProgress(context.Background(), func(done, total int64) {})
	got, _, err := camp.RunCheckpoint(ctx, nil, faults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if len(got[i].FailObs) != len(ref[i].FailObs) || got[i].Detected != ref[i].Detected {
			t.Fatalf("fault %d: hooked result differs from plain", i)
		}
	}
}
