package fault

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// execVia returns a ShardFunc that computes shards in-process by running a
// fresh worker-side campaign under WithShardTarget — the same machinery an
// HTTP worker uses, minus the wire.
func execVia(sim *Sim, u *Universe, nFaults int, cfg CampaignConfig) ShardFunc {
	return func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
		wctx, res := WithShardTarget(ctx, key, lo, hi)
		camp := NewCampaign(sim, cfg)
		_, _, err := camp.RunCheckpoint(wctx, nil, u.Collapsed[:nFaults])
		if !errors.Is(err, ErrShardDone) {
			return nil, fmt.Errorf("worker campaign returned %v, want ErrShardDone", err)
		}
		return res, nil
	}
}

// TestShardWindowMatchesFullRun: a worker window's results are bit-identical
// to the same indices of a full local run, the collector is sealed, and the
// flow is stopped with ErrShardDone.
func TestShardWindowMatchesFullRun(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:200]
	full := NewCampaign(sim, CampaignConfig{Workers: 2})
	want, _, err := full.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatal(err)
	}
	key := campaignIdentity(full.core, faults, 0, len(full.core.Patterns), full.cfg)

	ctx, res := WithShardTarget(context.Background(), key, 50, 130)
	worker := NewCampaign(sim, CampaignConfig{Workers: 3})
	_, st, err := worker.RunCheckpoint(ctx, nil, faults)
	if !errors.Is(err, ErrShardDone) {
		t.Fatalf("window run returned %v, want ErrShardDone", err)
	}
	if st.Faults != 80 {
		t.Fatalf("window simulated %d faults, want 80", st.Faults)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("sealed shard fails Verify: %v", err)
	}
	if !reflect.DeepEqual(res.Results, want[50:130]) {
		t.Fatal("shard window results differ from the full run's same indices")
	}

	// A campaign with a different key must not claim the target.
	other := NewCampaign(sim, CampaignConfig{Workers: 2})
	octx, ores := WithShardTarget(context.Background(), key, 0, 10)
	if _, _, err := other.RunCheckpoint(octx, nil, faults[:150]); err != nil {
		t.Fatalf("non-matching campaign under a shard target failed: %v", err)
	}
	if ores.Digest != "" {
		t.Fatal("non-matching campaign filled the collector")
	}
}

// TestShardPlanDispatch: a coordinator campaign under WithShardPlan farms
// every fault range out remotely and merges a result bit-identical to the
// serial run, simulating nothing locally.
func TestShardPlanDispatch(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:200]
	serial := NewCampaign(sim, CampaignConfig{Workers: 1})
	want, _, err := serial.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatal(err)
	}

	var dispatched atomic.Int64
	plan := &ShardPlan{
		Exec: func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
			dispatched.Add(1)
			return execVia(sim, u, 200, CampaignConfig{Workers: 2})(ctx, key, lo, hi)
		},
		Shards: 4,
	}
	coord := NewCampaign(sim, CampaignConfig{Workers: 2})
	got, st, err := coord.RunCheckpoint(WithShardPlan(context.Background(), plan), nil, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("dispatched campaign differs from serial run")
	}
	if n := dispatched.Load(); n != 4 {
		t.Fatalf("dispatched %d shards, want 4", n)
	}
	// Remote stats merged: every fault was simulated exactly once, remotely.
	if st.Faults != 200 {
		t.Fatalf("merged stats count %d fault sims, want 200", st.Faults)
	}
}

// TestShardPlanFallback: shards whose dispatch fails are simulated locally,
// the result stays bit-identical, and the fallback hook sees every failed
// range. With every dispatch failing (pool exhausted), the campaign
// degrades to a plain local run.
func TestShardPlanFallback(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:200]
	serial := NewCampaign(sim, CampaignConfig{Workers: 1})
	want, _, err := serial.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("partial", func(t *testing.T) {
		var fellBack atomic.Int64
		var calls atomic.Int64
		plan := &ShardPlan{
			Exec: func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
				// Fail half the shards; Exec runs concurrently across the
				// dispatch goroutines, so the toggle must be atomic.
				if calls.Add(1)%2 == 0 {
					return nil, errors.New("worker died")
				}
				return execVia(sim, u, 200, CampaignConfig{Workers: 1})(ctx, key, lo, hi)
			},
			Shards:     4,
			OnFallback: func(CampaignKey, int, int, error) { fellBack.Add(1) },
		}
		coord := NewCampaign(sim, CampaignConfig{Workers: 2})
		got, _, err := coord.RunCheckpoint(WithShardPlan(context.Background(), plan), nil, faults)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("partially dispatched campaign differs from serial run")
		}
		if fellBack.Load() == 0 {
			t.Fatal("no fallback despite failing dispatches")
		}
	})

	t.Run("exhausted", func(t *testing.T) {
		var fellBack atomic.Int64
		plan := &ShardPlan{
			Exec: func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
				return nil, errors.New("no live workers")
			},
			Shards:     3,
			OnFallback: func(CampaignKey, int, int, error) { fellBack.Add(1) },
		}
		coord := NewCampaign(sim, CampaignConfig{Workers: 2})
		got, st, err := coord.RunCheckpoint(WithShardPlan(context.Background(), plan), nil, faults)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("fully degraded campaign differs from serial run")
		}
		if fellBack.Load() != 3 {
			t.Fatalf("fallback hook saw %d shards, want 3", fellBack.Load())
		}
		if st.Faults != 200 {
			t.Fatalf("local fallback simulated %d faults, want 200", st.Faults)
		}
	})
}

// TestShardPlanRejectsCorruptResult: a shard result with tampered bytes, a
// wrong window, or a foreign key is refused and its range recomputed
// locally — the merged output never trusts unverified remote data.
func TestShardPlanRejectsCorruptResult(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:120]
	serial := NewCampaign(sim, CampaignConfig{Workers: 1})
	want, _, err := serial.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatal(err)
	}

	tamper := []func(r *ShardResult){
		func(r *ShardResult) { r.Results[0].Detected = !r.Results[0].Detected }, // digest mismatch
		func(r *ShardResult) { r.Lo++; r.Results = r.Results[1:] },              // window mismatch
		func(r *ShardResult) { r.Key.FaultsDigest = "0000000000000000" },        // foreign key
	}
	for i, corrupt := range tamper {
		t.Run(fmt.Sprintf("tamper-%d", i), func(t *testing.T) {
			var fellBack atomic.Int64
			plan := &ShardPlan{
				Exec: func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
					res, err := execVia(sim, u, 120, CampaignConfig{Workers: 1})(ctx, key, lo, hi)
					if err != nil {
						return nil, err
					}
					corrupt(res)
					return res, nil
				},
				Shards:     1,
				OnFallback: func(CampaignKey, int, int, error) { fellBack.Add(1) },
			}
			coord := NewCampaign(sim, CampaignConfig{Workers: 2})
			got, _, err := coord.RunCheckpoint(WithShardPlan(context.Background(), plan), nil, faults)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("campaign merged a corrupt shard")
			}
			if fellBack.Load() != 1 {
				t.Fatalf("corrupt shard not rejected (fallbacks=%d)", fellBack.Load())
			}
		})
	}
}

// TestShardPlanCheckpointJournal: remotely computed shards are journaled
// like local chunks — a reload of the coordinator's journal rehydrates the
// full campaign.
func TestShardPlanCheckpointJournal(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:200]
	path := filepath.Join(t.TempDir(), "coord.ck")

	plan := &ShardPlan{Exec: execVia(sim, u, 200, CampaignConfig{Workers: 2}), Shards: 3}
	coord := NewCampaign(sim, CampaignConfig{Workers: 2})
	want, _, err := coord.RunCheckpoint(WithShardPlan(context.Background(), plan), NewCheckpoint(path), faults)
	if err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewCampaign(sim, CampaignConfig{Workers: 2})
	got, st, err := resumed.RunCheckpoint(context.Background(), ck, faults)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rehydrated != 200 {
		t.Fatalf("rehydrated %d of 200 from a dispatched run's journal", st.Rehydrated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rehydrated results differ from the dispatched run")
	}
}

// TestShardEligibility: windowed (per-word ATPG-style) campaigns and
// campaigns below MinFaults never dispatch — they run locally even under an
// armed plan.
func TestShardEligibility(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	faults := u.Collapsed[:80]
	var dispatched atomic.Int64
	plan := &ShardPlan{
		Exec: func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error) {
			dispatched.Add(1)
			return nil, errors.New("must not be called")
		},
		Shards:    2,
		MinFaults: 100,
	}
	ctx := WithShardPlan(context.Background(), plan)

	// Below MinFaults: local.
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	if _, _, err := camp.RunCheckpoint(ctx, nil, faults); err != nil {
		t.Fatal(err)
	}
	// Windowed run (not the full pattern span): local regardless of size.
	plan.MinFaults = 1
	wcamp := NewCampaign(sim, CampaignConfig{Workers: 2})
	if _, _, err := wcamp.RunWordsCheckpoint(ctx, nil, faults, 1, 2); err != nil {
		t.Fatal(err)
	}
	if n := dispatched.Load(); n != 0 {
		t.Fatalf("ineligible campaigns dispatched %d shards", n)
	}
}
