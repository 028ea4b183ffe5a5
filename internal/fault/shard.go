// Sharded campaign execution.
//
// A campaign's results depend only on (fault list, pattern words, config) —
// the CampaignKey — never on worker count or scheduling. That makes a
// campaign distributable by fault-index range: a coordinator splits the
// pending indices of an eligible campaign into contiguous shards and hands
// each to a ShardFunc (typically an HTTP dispatch to a rescued worker),
// while a worker re-executes the same deterministic flow until it reaches
// the campaign whose key matches its assignment, simulates only that
// window, and returns the results.
//
// Both halves attach to a context so the machinery threads through the
// existing flow entry points untouched:
//
//   - WithShardTarget (worker side) plants the assignment; the matching
//     campaign fills the collector and aborts its flow with ErrShardDone.
//   - WithShardPlan (coordinator side) plants the dispatcher; eligible
//     campaigns fan their ranges out before the local workers start, and
//     any shard whose dispatch fails is simply left pending — the local
//     worker pool picks it up, so degradation to in-process execution is
//     the no-op fallback, not a special mode.
//
// Shard results are content-addressed twice over: the worker derives the
// CampaignKey independently (a mismatched flow never claims the target) and
// seals the result bytes with the journal's results digest, which the
// coordinator verifies before merging. A retried shard therefore merges
// byte-identically no matter which worker computed it, and a late result
// from an abandoned worker is safely discarded unread.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrShardDone is the sentinel a shard worker's campaign returns once its
// assigned window is computed: not a failure, but a signal that the rest of
// the flow is intentionally not run. Callers executing a flow under
// WithShardTarget must treat it as success and read the collector.
var ErrShardDone = errors.New("fault: shard window computed; remainder of the flow skipped by design")

// ShardResult is one computed window of a campaign: the results for fault
// indices [Lo, Hi) of the campaign identified by Key, sealed with the same
// digest the checkpoint journal uses.
type ShardResult struct {
	Key     CampaignKey `json:"key"`
	Lo      int         `json:"lo"`
	Hi      int         `json:"hi"`
	Results []Result    `json:"results"`
	Stats   Stats       `json:"stats"`
	Digest  string      `json:"digest"`
}

// Verify checks the result's internal consistency: window shape and the
// content digest over the serialized results. The coordinator additionally
// checks Key equality against its own derivation before merging.
func (r *ShardResult) Verify() error {
	if r.Lo < 0 || r.Hi <= r.Lo || r.Hi > r.Key.NFaults {
		return fmt.Errorf("fault: shard window [%d,%d) invalid for %d faults", r.Lo, r.Hi, r.Key.NFaults)
	}
	if len(r.Results) != r.Hi-r.Lo {
		return fmt.Errorf("fault: shard [%d,%d) carries %d results, want %d", r.Lo, r.Hi, len(r.Results), r.Hi-r.Lo)
	}
	if _, got := sealResults(r.Results); got != r.Digest {
		return fmt.Errorf("fault: shard [%d,%d) digest mismatch: computed %s, sealed %s", r.Lo, r.Hi, got, r.Digest)
	}
	return nil
}

// shardTarget is the worker-side assignment: the campaign to intercept and
// the collector to fill. claimed flips exactly once, on the first campaign
// whose derived key equals the assignment's.
type shardTarget struct {
	mu      sync.Mutex
	claimed bool
	res     *ShardResult
}

// claim atomically takes the target for the campaign with key id.
func (t *shardTarget) claim(id CampaignKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.claimed || t.res.Key != id {
		return false
	}
	t.claimed = true
	return true
}

type shardTargetCtxKey struct{}

// WithShardTarget arms a context for shard-worker execution: the first
// campaign run under the returned context whose CampaignKey equals key
// simulates only fault indices [lo, hi), fills the returned collector, and
// returns ErrShardDone. Campaigns with other keys run normally (they may be
// prerequisites of the target — e.g. ATPG generation ahead of a fleet
// campaign).
func WithShardTarget(ctx context.Context, key CampaignKey, lo, hi int) (context.Context, *ShardResult) {
	res := &ShardResult{Key: key, Lo: lo, Hi: hi}
	return context.WithValue(ctx, shardTargetCtxKey{}, &shardTarget{res: res}), res
}

func shardTargetFrom(ctx context.Context) *shardTarget {
	t, _ := ctx.Value(shardTargetCtxKey{}).(*shardTarget)
	return t
}

// ShardFunc computes one shard remotely: the results for fault indices
// [lo, hi) of the campaign identified by key. An error means the shard
// could not be computed remotely (pool exhausted, retry budget spent); the
// campaign then runs that range locally.
type ShardFunc func(ctx context.Context, key CampaignKey, lo, hi int) (*ShardResult, error)

// ShardPlan is the coordinator-side dispatch policy attached to a context
// via WithShardPlan.
type ShardPlan struct {
	// Exec computes one shard remotely. Required.
	Exec ShardFunc
	// Shards is the number of pieces an eligible campaign's pending work is
	// split into. <= 0 means 1.
	Shards int
	// MinFaults gates dispatch: campaigns smaller than this run locally —
	// the fan-out overhead would dwarf the simulation. <= 0 means 1.
	MinFaults int
	// OnFallback, when set, is told about every shard whose remote dispatch
	// failed and was left for local execution.
	OnFallback func(key CampaignKey, lo, hi int, err error)
}

// eligible reports whether a campaign run is worth dispatching: only
// full-pattern-span campaigns qualify. Windowed runs (the ATPG per-word
// inner loop past word zero) are sequentially dependent on pattern state a
// remote flow re-derives from scratch, so dispatching them would cost
// O(n²); they always run locally.
func (p *ShardPlan) eligible(nFaults, wLo, wHi, nPatterns int) bool {
	if p == nil || p.Exec == nil || nFaults == 0 || nPatterns == 0 {
		return false
	}
	if wLo != 0 || wHi != nPatterns {
		return false
	}
	min := p.MinFaults
	if min <= 0 {
		min = 1
	}
	return nFaults >= min
}

type shardPlanCtxKey struct{}

// WithShardPlan arms a context for coordinator execution: every eligible
// campaign run under it dispatches its pending fault ranges through the
// plan before falling back to the local worker pool for whatever remains.
func WithShardPlan(ctx context.Context, p *ShardPlan) context.Context {
	return context.WithValue(ctx, shardPlanCtxKey{}, p)
}

func shardPlanFrom(ctx context.Context) *ShardPlan {
	p, _ := ctx.Value(shardPlanCtxKey{}).(*ShardPlan)
	return p
}

// dispatchShards fans the campaign's pending contiguous ranges out through
// the plan. Completed shards are copied into out, journaled, reported to
// progress, and marked in done; failed shards stay pending for the local
// workers. It returns the (possibly freshly allocated) done bitmap. All
// dispatch completes before the local worker pool starts, so the returned
// bitmap is read-only thereafter.
func (c *Campaign) dispatchShards(ctx context.Context, plan *ShardPlan, id CampaignKey,
	out []Result, sec *ckSection, done []bool,
	report func(n int64), st *Stats) []bool {

	// Pending contiguous spans, split into ~Shards equal pieces.
	n := len(out)
	var spans [][2]int
	pending := 0
	pendingRuns(done, 0, n, func(i, j int) {
		spans = append(spans, [2]int{i, j})
		pending += j - i
	})
	if pending == 0 {
		return done
	}
	shards := plan.Shards
	if shards < 1 {
		shards = 1
	}
	per := (pending + shards - 1) / shards
	var pieces [][2]int
	for _, s := range spans {
		for lo := s[0]; lo < s[1]; lo += per {
			hi := lo + per
			if hi > s[1] {
				hi = s[1]
			}
			pieces = append(pieces, [2]int{lo, hi})
		}
	}

	if done == nil {
		done = make([]bool, n)
	}
	var mu sync.Mutex // guards st accumulation; piece index ranges are disjoint
	var wg sync.WaitGroup
	for _, pc := range pieces {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			res, err := plan.Exec(ctx, id, lo, hi)
			if err == nil {
				err = c.checkShard(res, id, lo, hi)
			}
			if err != nil {
				// Left pending: the local worker pool simulates this range
				// after dispatch completes — graceful degradation.
				if plan.OnFallback != nil && ctx.Err() == nil {
					plan.OnFallback(id, lo, hi, err)
				}
				return
			}
			copy(out[lo:hi], res.Results)
			if sec != nil {
				// Nothing in [lo, hi) was rehydrated (it was pending), so the
				// whole window is fresh work to journal.
				sec.record(lo, hi, out, nil)
			}
			for i := lo; i < hi; i++ {
				done[i] = true
			}
			mu.Lock()
			st.Faults += res.Stats.Faults
			st.Detected += res.Stats.Detected
			st.Words += res.Stats.Words
			st.Events += res.Stats.Events
			mu.Unlock()
			report(int64(hi - lo))
		}(pc[0], pc[1])
	}
	wg.Wait()
	return done
}

// checkShard validates a remote result before it is merged: the worker must
// have derived the identical CampaignKey, covered exactly the requested
// window, and sealed results whose digest still matches.
func (c *Campaign) checkShard(res *ShardResult, id CampaignKey, lo, hi int) error {
	if res == nil {
		return errors.New("fault: nil shard result")
	}
	if res.Key != id {
		return fmt.Errorf("fault: shard key mismatch: worker computed %+v, coordinator expects %+v", res.Key, id)
	}
	if res.Lo != lo || res.Hi != hi {
		return fmt.Errorf("fault: shard window mismatch: got [%d,%d), want [%d,%d)", res.Lo, res.Hi, lo, hi)
	}
	return res.Verify()
}
