package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rescue/internal/serve"
)

// TestServeEviction churns more than MaxFinishedJobs instant jobs through
// two closed-loop clients, each fetching every report right after its
// done event, and then checks the bounded table: evicted IDs answer 410
// on every route and an ID never issued 404; the running job, the queued
// jobs and the newest finished jobs survive; GET /jobs lists exactly the
// kept jobs; an event stream opened before its job was evicted still
// runs to done; and /metrics counts the evictions.
func TestServeEviction(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	gate := make(chan struct{})
	kinds := testKinds(release)
	kinds["instant"] = func(_ context.Context, _ serve.RunContext, params json.RawMessage) ([]byte, error) {
		return append([]byte("instant "), params...), nil
	}
	kinds["gate"] = func(ctx context.Context, _ serve.RunContext, _ json.RawMessage) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-gate:
			return []byte("gate\n"), nil
		}
	}
	s := newTestServer(t, serve.Config{Slots: 3, MaxInflightPerTenant: 1, Kinds: kinds})
	c := &serve.Client{Base: s.ts.URL}
	ctx := context.Background()

	// Tenant "held" keeps one job running and two queued behind its
	// in-flight limit for the whole churn.
	running, _ := s.submitAs(t, "held", `{"kind":"block"}`)
	s.waitState(t, running.ID, serve.StateRunning, 10*time.Second)
	var queued []string
	for i := 0; i < 2; i++ {
		sn, _ := s.submitAs(t, "held", `{"kind":"block"}`)
		queued = append(queued, sn.ID)
	}

	// A stream opened on a running job, read only after the job finished
	// and was evicted.
	gated, _ := s.submitAs(t, "stream", `{"kind":"gate"}`)
	s.waitState(t, gated.ID, serve.StateRunning, 10*time.Second)
	stream, err := http.Get(s.ts.URL + "/jobs/" + gated.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	close(gate)
	s.waitState(t, gated.ID, serve.StateSucceeded, 10*time.Second)

	const churn = serve.MaxFinishedJobs + 100
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := caller; k < churn; k += 2 {
				params := fmt.Sprintf(`{"n":%d}`, k)
				id, err := c.Submit(ctx, []byte(`{"kind":"instant","params":`+params+`}`), "churn", "")
				if err != nil {
					errc <- err
					return
				}
				if st, err := c.Follow(ctx, id, func(serve.Event) {}); err != nil || st != serve.StateSucceeded {
					errc <- fmt.Errorf("job %s ended %q: %v", id, st, err)
					return
				}
				out, err := c.Result(ctx, id)
				if err != nil {
					errc <- fmt.Errorf("result of job %s right after done: %w", id, err)
					return
				}
				if want := "instant " + params; string(out) != want {
					errc <- fmt.Errorf("job %s result %q, want %q", id, out, want)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The stream opened before the eviction runs to its done event.
	var last serve.Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
	}
	if last.Type != "done" || last.State != serve.StateSucceeded {
		t.Fatalf("evicted job's open stream ended with %+v, want done/succeeded", last)
	}

	// 1 + 1 + churn jobs finished; the MaxFinishedJobs newest are kept.
	evicted := []string{gated.ID, ids[0], ids[50]}
	for _, id := range evicted {
		for _, path := range []string{"", "/result", "/events", "/journal"} {
			code, b := s.get(t, "/jobs/"+id+path)
			if code != http.StatusGone || !strings.Contains(string(b), "evicted") {
				t.Fatalf("GET /jobs/%s%s on an evicted job: %d %s, want 410 naming the eviction", id, path, code, b)
			}
		}
		if code, b := s.delete(t, "/jobs/"+id); code != http.StatusGone {
			t.Fatalf("DELETE /jobs/%s on an evicted job: %d %s, want 410", id, code, b)
		}
		if _, err := c.Result(ctx, id); !errors.Is(err, serve.ErrEvicted) {
			t.Fatalf("Client.Result of evicted job %s: %v, want ErrEvicted", id, err)
		}
	}
	for _, id := range []string{"j999999", "j1", "nope"} {
		if code, _ := s.get(t, "/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("GET /jobs/%s, an ID never issued: %d, want 404", id, code)
		}
	}
	if sn, err := c.Snapshot(ctx, running.ID); err != nil || sn.State != serve.StateRunning {
		t.Fatalf("running job after the churn: %+v, %v", sn, err)
	}
	for _, id := range queued {
		if sn, err := c.Snapshot(ctx, id); err != nil || sn.State != serve.StateQueued {
			t.Fatalf("queued job %s after the churn: %+v, %v", id, sn, err)
		}
	}
	newest := ids[len(ids)-1]
	if out, err := c.Result(ctx, newest); err != nil || !strings.HasPrefix(string(out), "instant ") {
		t.Fatalf("newest job %s: %q, %v", newest, out, err)
	}

	code, b := s.get(t, "/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", code)
	}
	var list []serve.Snapshot
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if want := serve.MaxFinishedJobs + 3; len(list) != want {
		t.Fatalf("GET /jobs lists %d jobs, want %d (the finished jobs kept plus one running and two queued)", len(list), want)
	}
	listed := map[string]bool{}
	for i, sn := range list {
		listed[sn.ID] = true
		if i > 0 && sn.ID <= list[i-1].ID {
			t.Fatalf("GET /jobs out of submission order at %s after %s", sn.ID, list[i-1].ID)
		}
	}
	for _, id := range append([]string{running.ID, newest}, queued...) {
		if !listed[id] {
			t.Fatalf("GET /jobs omits kept job %s", id)
		}
	}
	for _, id := range evicted {
		if listed[id] {
			t.Fatalf("GET /jobs lists evicted job %s", id)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(churn + 1 - serve.MaxFinishedJobs); m["jobs_evicted_total"] != want {
		t.Fatalf("jobs_evicted_total = %v, want %v", m["jobs_evicted_total"], want)
	}
	if want := float64(serve.MaxFinishedJobs + 3); m["jobs_retained"] != want {
		t.Fatalf("jobs_retained = %v, want %v", m["jobs_retained"], want)
	}
}
