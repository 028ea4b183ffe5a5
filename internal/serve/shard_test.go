package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/serve"
)

// miniRunner is a campaign-bearing job kind for shard tests: fast, and
// byte-deterministic across executions — every call derives the identical
// sim, faults, and therefore CampaignKey, the property real workers get
// from loading the same design.
func miniRunner(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		return nil, err
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(61))
	var pats []*scan.Pattern
	for w := 0; w < 2; w++ {
		p := c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = r.Uint64()
		}
		for i := range p.PIVals {
			p.PIVals[i] = r.Uint64()
		}
		pats = append(pats, p)
	}
	sim := fault.NewSim(c, pats)
	faults := fault.NewUniverse(d.N).Collapsed[:200]
	camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: 2})
	res, st, err := camp.RunCheckpoint(ctx, rc.Env.Ck, faults)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i, r := range res {
		fmt.Fprintf(&buf, "%4d %v %v\n", i, r.Detected, r.FailObs)
	}
	fmt.Fprintf(&buf, "faults=%d\n", st.Faults)
	return buf.Bytes(), nil
}

func shardTestKinds() map[string]serve.Runner {
	kinds := testKinds(make(chan struct{}))
	kinds["mini"] = miniRunner
	return kinds
}

// captureKey runs the mini flow under a shard plan whose Exec always
// declines, recording the campaign key and window a coordinator would
// dispatch — the only supported way to learn a key outside the fault
// package, exactly as rescue-shard does.
func captureKey(t *testing.T) (fault.CampaignKey, int, int) {
	t.Helper()
	var key fault.CampaignKey
	var lo, hi int
	plan := &fault.ShardPlan{
		Shards:    1,
		MinFaults: 1,
		Exec: func(ctx context.Context, k fault.CampaignKey, l, h int) (*fault.ShardResult, error) {
			key, lo, hi = k, l, h
			return nil, fmt.Errorf("capture only")
		},
	}
	ctx := fault.WithShardPlan(context.Background(), plan)
	if _, err := miniRunner(ctx, serve.RunContext{Workers: 2}, nil); err != nil {
		t.Fatalf("capture run: %v", err)
	}
	if key.NFaults != 200 {
		t.Fatalf("captured key %+v, want NFaults=200", key)
	}
	return key, lo, hi
}

// TestServeShardKind: a shard job computes one fault window of an inner
// flow and returns a digest-sealed ShardResult; malformed shard specs fail
// loudly instead of returning something mergeable.
func TestServeShardKind(t *testing.T) {
	key, lo, hi := captureKey(t)
	s := newTestServer(t, serve.Config{Kinds: shardTestKinds(), Workers: 2})

	spec, err := serve.ShardSpec(serve.Spec{Kind: "mini"}, key, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(spec)
	sn, resp := s.submit(t, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard job: %d", resp.StatusCode)
	}
	s.waitState(t, sn.ID, serve.StateSucceeded, time.Minute)
	code, out := s.get(t, "/jobs/"+sn.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("shard result: %d %s", code, out)
	}
	var res fault.ShardResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatalf("shard result is not a ShardResult: %v\n%s", err, out)
	}
	if res.Key != key || res.Lo != lo || res.Hi != hi {
		t.Fatalf("shard result window %+v [%d,%d), want %+v [%d,%d)", res.Key, res.Lo, res.Hi, key, lo, hi)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("shard result fails verification: %v", err)
	}
	if len(res.Results) != hi-lo {
		t.Fatalf("shard carries %d results, want %d", len(res.Results), hi-lo)
	}

	// Malformed shard jobs fail; none of them may produce a result.
	keyJSON, _ := json.Marshal(key)
	bad := []struct {
		name, params, wantErr string
	}{
		{"nested shard", fmt.Sprintf(`{"flow":{"kind":"shard"},"key":%s,"lo":0,"hi":10}`, keyJSON), "nest"},
		{"unknown inner kind", fmt.Sprintf(`{"flow":{"kind":"nope"},"key":%s,"lo":0,"hi":10}`, keyJSON), "unknown"},
		{"inverted window", fmt.Sprintf(`{"flow":{"kind":"mini"},"key":%s,"lo":10,"hi":5}`, keyJSON), "window"},
		{"window past the campaign", fmt.Sprintf(`{"flow":{"kind":"mini"},"key":%s,"lo":0,"hi":5000}`, keyJSON), "window"},
		{"flow without the campaign", fmt.Sprintf(`{"flow":{"kind":"system"},"key":%s,"lo":0,"hi":10}`, keyJSON), "never reached"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			sn, resp := s.submit(t, fmt.Sprintf(`{"kind":"shard","params":%s}`, tc.params))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			deadline := time.Now().Add(time.Minute)
			var got serve.Snapshot
			for {
				code, b := s.get(t, "/jobs/"+sn.ID)
				if code != http.StatusOK {
					t.Fatalf("GET job: %d", code)
				}
				if err := json.Unmarshal(b, &got); err != nil {
					t.Fatal(err)
				}
				if got.State.Done() || time.Now().After(deadline) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got.State != serve.StateFailed {
				t.Fatalf("job state %s, want failed", got.State)
			}
			if !strings.Contains(got.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", got.Error, tc.wantErr)
			}
		})
	}
}

// TestServeDeleteTerminal: cancelling a job that already reached a
// terminal state is a 409 conflict — the job exists, its outcome is
// settled — never a 404 and never a silent 200.
func TestServeDeleteTerminal(t *testing.T) {
	s := newTestServer(t, serve.Config{Kinds: shardTestKinds()})
	sn, _ := s.submit(t, `{"kind":"system"}`)
	s.waitState(t, sn.ID, serve.StateSucceeded, time.Minute)

	req, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+sn.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE on terminal job: %d, want 409", resp.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg.Error, "succeeded") {
		t.Fatalf("conflict body %q does not name the terminal state", msg.Error)
	}
	// The job is still there, untouched.
	code, b := s.get(t, "/jobs/"+sn.ID)
	if code != http.StatusOK {
		t.Fatalf("GET after refused delete: %d", code)
	}
	var after serve.Snapshot
	if err := json.Unmarshal(b, &after); err != nil {
		t.Fatal(err)
	}
	if after.State != serve.StateSucceeded {
		t.Fatalf("state mutated to %s by refused delete", after.State)
	}
}

// TestServeJournalEndpoint: a job that flushed a checkpoint journal
// exports it over GET /jobs/{id}/journal; jobs without one 404.
func TestServeJournalEndpoint(t *testing.T) {
	kinds := shardTestKinds()
	// ckfail journals one campaign, flushes, then fails — the deterministic
	// stand-in for a crashed job whose journal a coordinator wants to salvage.
	kinds["ckfail"] = func(ctx context.Context, rc serve.RunContext, raw json.RawMessage) ([]byte, error) {
		if _, err := miniRunner(ctx, rc, raw); err != nil {
			return nil, err
		}
		if rc.Env.Ck != nil {
			if err := rc.Env.Ck.Flush(); err != nil {
				return nil, err
			}
		}
		return nil, fmt.Errorf("synthetic failure after flush")
	}

	s := newTestServer(t, serve.Config{Kinds: kinds, CheckpointDir: t.TempDir(), Workers: 2})
	sn, _ := s.submit(t, `{"kind":"ckfail"}`)
	s.waitState(t, sn.ID, serve.StateFailed, time.Minute)

	code, b := s.get(t, "/jobs/"+sn.ID+"/journal")
	if code != http.StatusOK {
		t.Fatalf("journal fetch: %d %s", code, b)
	}
	if len(b) == 0 || !strings.Contains(string(b), "nFaults") {
		t.Fatalf("journal carries no campaign sections:\n%s", b)
	}

	// A successful campaign job consumes its journal: 404 afterwards.
	ok, _ := s.submit(t, `{"kind":"mini"}`)
	s.waitState(t, ok.ID, serve.StateSucceeded, time.Minute)
	if code, _ := s.get(t, "/jobs/"+ok.ID+"/journal"); code != http.StatusNotFound {
		t.Fatalf("journal of succeeded job: %d, want 404", code)
	}

	// With checkpointing off the route answers 404, not 500.
	s2 := newTestServer(t, serve.Config{Kinds: shardTestKinds()})
	sn2, _ := s2.submit(t, `{"kind":"system"}`)
	s2.waitState(t, sn2.ID, serve.StateSucceeded, time.Minute)
	if code, _ := s2.get(t, "/jobs/"+sn2.ID+"/journal"); code != http.StatusNotFound {
		t.Fatalf("journal with checkpointing off: %d, want 404", code)
	}
}
