package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rescue/internal/fault"
	"rescue/internal/serve"
)

// fakeDaemon serves one canned response per route, so each client edge
// case is a few lines of handler.
func fakeDaemon(t *testing.T, routes map[string]http.HandlerFunc) *serve.Client {
	t.Helper()
	mux := http.NewServeMux()
	for pattern, h := range routes {
		mux.HandleFunc(pattern, h)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &serve.Client{Base: ts.URL}
}

func shed(retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}
}

// TestClientSubmitBusy: a 429 is a *BusyError carrying the Retry-After
// hint in seconds, and 0 when the header is absent or malformed.
func TestClientSubmitBusy(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"2", 2 * time.Second},
		{" 7 ", 7 * time.Second},
		{"", 0},
		{"soon", 0},
		{"-3", 0},
		{"Wed, 21 Oct 2026 07:28:00 GMT", 0},
	} {
		c := fakeDaemon(t, map[string]http.HandlerFunc{"POST /jobs": shed(tc.header)})
		_, err := c.Submit(context.Background(), []byte(`{"kind":"x"}`), "", "")
		var busy *serve.BusyError
		if !errors.As(err, &busy) {
			t.Fatalf("Retry-After %q: err = %v, want *BusyError", tc.header, err)
		}
		if busy.RetryAfter != tc.want {
			t.Fatalf("Retry-After %q: hint %s, want %s", tc.header, busy.RetryAfter, tc.want)
		}
	}
}

// TestClientSubmitRequest pins what goes on the wire: method, path,
// body, and the tag headers only when set.
func TestClientSubmitRequest(t *testing.T) {
	var got []http.Header
	c := fakeDaemon(t, map[string]http.HandlerFunc{
		"POST /jobs": func(w http.ResponseWriter, r *http.Request) {
			var spec serve.Spec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || spec.Kind != "table3" {
				t.Errorf("body decoded to %+v (%v)", spec, err)
			}
			got = append(got, r.Header.Clone())
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.Snapshot{ID: "j-1"})
		},
	})
	body := []byte(`{"kind":"table3","params":{"small":true}}`)
	for _, tag := range [][2]string{{"", ""}, {"team-a", "interactive"}} {
		id, err := c.Submit(context.Background(), body, tag[0], tag[1])
		if err != nil || id != "j-1" {
			t.Fatalf("Submit = %q, %v", id, err)
		}
	}
	if h := got[0]; h.Get("Content-Type") != "application/json" || h.Get("X-Rescue-Client") != "" || h.Get("X-Rescue-Class") != "" {
		t.Fatalf("untagged submit headers: %v", h)
	}
	if h := got[1]; h.Get("X-Rescue-Client") != "team-a" || h.Get("X-Rescue-Class") != "interactive" {
		t.Fatalf("tagged submit headers: %v", h)
	}
}

// TestClientFollow: every line, synthetic ones included, reaches the
// callback; a stream cut before its done event is an error, not a
// success.
func TestClientFollow(t *testing.T) {
	stream := func(lines ...string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			for _, l := range lines {
				w.Write([]byte(l + "\n"))
			}
		}
	}
	c := fakeDaemon(t, map[string]http.HandlerFunc{
		"GET /jobs/ok/events": stream(
			`{"seq":0,"type":"dropped","count":5}`,
			`{"seq":6,"type":"progress","done":1,"total":2}`,
			`{"seq":0,"type":"keepalive"}`,
			`{"seq":7,"type":"done","state":"succeeded"}`),
		"GET /jobs/cut/events": stream(
			`{"seq":1,"type":"queued"}`,
			`{"seq":2,"type":"started"}`),
		"GET /jobs/torn/events": stream(
			`{"seq":1,"type":"queued"}`,
			`{"seq":2,"type":"do`),
	})

	var types []string
	state, err := c.Follow(context.Background(), "ok", func(ev serve.Event) {
		types = append(types, ev.Type)
		if ev.Type == "dropped" && ev.Count != 5 {
			t.Errorf("dropped count %d, want 5", ev.Count)
		}
	})
	if err != nil || state != serve.StateSucceeded {
		t.Fatalf("Follow = %q, %v", state, err)
	}
	if strings.Join(types, ",") != "dropped,progress,keepalive,done" {
		t.Fatalf("callback saw %v", types)
	}

	for _, id := range []string{"cut", "torn"} {
		if state, err := c.Follow(context.Background(), id, func(serve.Event) {}); err == nil {
			t.Fatalf("stream %s without a done event returned %q, nil", id, state)
		}
	}
}

// TestClientLifecycle drives a real Server: Snapshot, Follow, Result,
// Metrics and Healthy agree with the daemon, and a Cancel that races a
// finished job (409) is not an error while an unknown job (404) is.
func TestClientLifecycle(t *testing.T) {
	kinds := serve.Kinds()
	kinds["chatty"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		progress := fault.ProgressFromContext(ctx)
		for i := int64(1); i <= 10; i++ {
			progress(i, 10)
		}
		return []byte("chatty done\n"), nil
	}
	s := newTestServer(t, serve.Config{Kinds: kinds})
	c := &serve.Client{Base: s.ts.URL + "/"}
	ctx := context.Background()

	if !c.Healthy(ctx) {
		t.Fatal("fresh server not healthy")
	}
	id, err := c.Submit(ctx, []byte(`{"kind":"chatty"}`), "", "")
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	state, err := c.Follow(ctx, id, func(ev serve.Event) {
		if ev.Type == "progress" {
			progress++
		}
	})
	if err != nil || state != serve.StateSucceeded || progress == 0 {
		t.Fatalf("Follow = %q, %v after %d progress events", state, err, progress)
	}
	sn, err := c.Snapshot(ctx, id)
	if err != nil || sn.ID != id || sn.State != serve.StateSucceeded {
		t.Fatalf("Snapshot = %+v, %v", sn, err)
	}
	out, err := c.Result(ctx, id)
	if err != nil || string(out) != "chatty done\n" {
		t.Fatalf("Result = %q, %v", out, err)
	}
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatalf("Cancel of a finished job: %v, want nil (409 is not an error)", err)
	}
	if err := c.Cancel(ctx, "no-such-job"); err == nil {
		t.Fatal("Cancel of an unknown job returned nil, want the 404")
	}
	if _, err := c.Result(ctx, "no-such-job"); err == nil {
		t.Fatal("Result of an unknown job returned nil error")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["jobs_succeeded_total"] != 1 || m["scheduler_slots"] != 1 {
		t.Fatalf("Metrics: succeeded %v, slots %v", m["jobs_succeeded_total"], m["scheduler_slots"])
	}

	if err := s.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Healthy(ctx) {
		t.Fatal("draining server reported healthy")
	}
}
