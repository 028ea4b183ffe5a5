package fault

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// serialReference simulates every fault on the plain serial path.
func serialReference(sim *Sim, u *Universe) []Result {
	ref := make([]Result, len(u.Collapsed))
	for i, f := range u.Collapsed {
		ref[i] = sim.Run(f, false)
	}
	return ref
}

// TestChaosWorkerPanicIsolated injects a panic into one worker mid-chunk
// and checks the containment contract: the panic is recovered, converted
// into a *PanicError carrying the offending fault index, sibling workers
// are cancelled, and the campaign stays usable afterwards.
func TestChaosWorkerPanicIsolated(t *testing.T) {
	sim, u := rescueSim(t, 3, 41)
	faults := u.Collapsed
	for _, target := range []int{0, len(faults) / 2, len(faults) - 1} {
		camp := NewCampaign(sim, CampaignConfig{Workers: 4})
		campaignSimHook = func(i int) {
			if i == target {
				panic("injected defect")
			}
		}
		_, _, err := camp.RunCheckpoint(context.Background(), nil, faults)
		campaignSimHook = nil
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("target=%d: got %v, want *PanicError", target, err)
		}
		if pe.FaultIndex != target {
			t.Fatalf("target=%d: PanicError.FaultIndex=%d", target, pe.FaultIndex)
		}
		if pe.Value != "injected defect" {
			t.Fatalf("target=%d: PanicError.Value=%v", target, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("target=%d: PanicError carries no stack", target)
		}
		if Interrupted(err) {
			t.Fatalf("target=%d: a worker panic must not count as a resumable interrupt", target)
		}
		// The guard must have been released and the campaign must still work.
		res, _, err := camp.RunCheckpoint(context.Background(), nil, faults[:32])
		if err != nil {
			t.Fatalf("target=%d: campaign unusable after panic: %v", target, err)
		}
		for i, f := range faults[:32] {
			if want := sim.Run(f, false); !reflect.DeepEqual(res[i], want) {
				t.Fatalf("target=%d: post-panic result %d differs from serial", target, i)
			}
		}
	}
}

// TestChaosRandomCancellation cancels runs at seeded random points in the
// simulation stream and checks each interruption is clean: the error is
// the cancellation cause, and a following uninterrupted run is still
// bit-identical to the serial path (no scratch-state corruption).
func TestChaosRandomCancellation(t *testing.T) {
	sim, u := rescueSim(t, 3, 43)
	faults := u.Collapsed
	ref := serialReference(sim, u)
	rng := rand.New(rand.NewSource(2026))
	camp := NewCampaign(sim, CampaignConfig{Workers: 4})
	for trial := 0; trial < 8; trial++ {
		cancelAt := int64(1 + rng.Intn(len(faults)))
		var seen atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		campaignSimHook = func(int) {
			if seen.Add(1) == cancelAt {
				cancel()
			}
		}
		_, _, err := camp.RunCheckpoint(ctx, nil, faults)
		campaignSimHook = nil
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d (cancel at %d): got %v, want nil or context.Canceled", trial, cancelAt, err)
		}
		if err == nil && cancelAt < int64(len(faults))/2 {
			t.Fatalf("trial %d: early cancellation at %d/%d did not interrupt the run", trial, cancelAt, len(faults))
		}
		got, _, err := camp.RunCheckpoint(context.Background(), nil, faults)
		if err != nil {
			t.Fatalf("trial %d: clean run after cancellation failed: %v", trial, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: results after cancellation differ from serial reference", trial)
		}
	}
}

// TestChaosCancelAfterSims exercises the armed chaos budget end to end:
// the campaign must cancel itself with ErrChaosCancel once the budget is
// spent, the outcome must count as Interrupted (resumable), and disarming
// must restore normal operation.
func TestChaosCancelAfterSims(t *testing.T) {
	defer ChaosCancelAfterSims(0)
	sim, u := rescueSim(t, 3, 47)
	faults := u.Collapsed
	camp := NewCampaign(sim, CampaignConfig{Workers: 4})

	ChaosCancelAfterSims(int64(len(faults) / 4))
	_, st, err := camp.RunCheckpoint(context.Background(), nil, faults)
	if !errors.Is(err, ErrChaosCancel) {
		t.Fatalf("armed chaos budget: got %v, want ErrChaosCancel", err)
	}
	if !Interrupted(err) {
		t.Fatal("a chaos cancel must count as a resumable interrupt")
	}
	if st.Faults == 0 || st.Faults >= int64(len(faults)) {
		t.Fatalf("chaos-cancelled run simulated %d of %d faults, want a strict partial", st.Faults, len(faults))
	}

	ChaosCancelAfterSims(0)
	if _, _, err := camp.RunCheckpoint(context.Background(), nil, faults); err != nil {
		t.Fatalf("disarmed run failed: %v", err)
	}
}

// TestChaosKillThenResumeConverges is the headline chaos scenario: a
// campaign is repeatedly "killed" by the chaos budget, its journal
// reloaded from disk each cycle (exactly what a new process does), and
// resumed at varying worker counts — and the converged result must be
// bit-identical to the serial path.
func TestChaosKillThenResumeConverges(t *testing.T) {
	defer ChaosCancelAfterSims(0)
	sim, u := rescueSim(t, 3, 53)
	faults := u.Collapsed
	ref := serialReference(sim, u)
	path := filepath.Join(t.TempDir(), "chaos.ckpt")

	budget := int64(len(faults)/6 + 1)
	workerCycle := []int{4, 1, 2, 8}
	var got []Result
	var cycles int
	for {
		cycles++
		if cycles > 50 {
			t.Fatal("kill-and-resume made no progress after 50 cycles")
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("cycle %d: reload journal: %v", cycles, err)
		}
		ChaosCancelAfterSims(budget)
		camp := NewCampaign(sim, CampaignConfig{Workers: workerCycle[cycles%len(workerCycle)]})
		res, st, err := camp.RunCheckpoint(context.Background(), ck, faults)
		if err == nil {
			got = res
			if st.Rehydrated == 0 {
				t.Fatalf("cycle %d: converged without rehydrating any journaled work", cycles)
			}
			break
		}
		if !errors.Is(err, ErrChaosCancel) {
			t.Fatalf("cycle %d: got %v, want ErrChaosCancel", cycles, err)
		}
	}
	if cycles < 3 {
		t.Fatalf("converged in %d cycles — budget too generous to exercise resume", cycles)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("kill-and-resume result differs from the serial reference")
	}

	// A fully journaled campaign rehydrates everything without simulating.
	ChaosCancelAfterSims(0)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(sim, CampaignConfig{Workers: 3})
	res, st, err := camp.RunCheckpoint(context.Background(), ck, faults)
	if err != nil {
		t.Fatalf("fully-journaled rerun failed: %v", err)
	}
	if st.Faults != 0 || st.Rehydrated != int64(len(faults)) {
		t.Fatalf("fully-journaled rerun simulated %d, rehydrated %d (want 0, %d)",
			st.Faults, st.Rehydrated, len(faults))
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("fully-rehydrated result differs from the serial reference")
	}
}
