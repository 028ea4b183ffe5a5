package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rescue/internal/atpg"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/rtl"
	"rescue/internal/serve"
)

// testKinds returns the built-in kinds plus test-only ones:
//
//	block — holds its slot until release is closed (or its ctx cancels)
//	system — builds the small Rescue system through the artifact store
func testKinds(release chan struct{}) map[string]serve.Runner {
	kinds := serve.Kinds()
	kinds["block"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-release:
			return []byte("released\n"), nil
		}
	}
	kinds["system"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		s, err := rc.Env.System(rtl.Small(), 1, rtl.RescueDesign)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d gates\n", len(s.Design.N.Gates))), nil
	}
	return kinds
}

type testServer struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg serve.Config) *testServer {
	t.Helper()
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testServer{srv: srv, ts: ts}
}

func (s *testServer) submit(t *testing.T, body string) (serve.Snapshot, *http.Response) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sn serve.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
			t.Fatal(err)
		}
	}
	return sn, resp
}

func (s *testServer) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// waitState polls a job until it reaches a terminal state.
func (s *testServer) waitState(t *testing.T, id string, want serve.State, timeout time.Duration) serve.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, b := s.get(t, "/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", id, code, b)
		}
		var sn serve.Snapshot
		if err := json.Unmarshal(b, &sn); err != nil {
			t.Fatal(err)
		}
		if sn.State == want {
			return sn
		}
		if sn.State.Done() || time.Now().After(deadline) {
			t.Fatalf("job %s state %s (err=%q), want %s", id, sn.State, sn.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeLifecycleGolden is the end-to-end contract: a table3 job
// submitted over HTTP produces byte-for-byte the committed golden (== the
// rescue-atpg CLI's output), cold at workers 1 and then warm at workers 4
// from the artifact cache, with the warm run hitting the cache and
// /metrics showing it.
func TestServeLifecycleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small ATPG flow")
	}
	s := newTestServer(t, serve.Config{})
	golden := readGolden(t, "table3_small.txt")

	sn, resp := s.submit(t, `{"kind":"table3","params":{"small":true,"workers":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// The result is not ready while the job runs.
	if code, _ := s.get(t, "/jobs/"+sn.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("early result fetch: %d, want 409", code)
	}
	cold := s.waitState(t, sn.ID, serve.StateSucceeded, 5*time.Minute)
	_, out := s.get(t, "/jobs/"+cold.ID+"/result")
	if !bytes.Equal(out, golden) {
		t.Fatalf("cold result differs from golden:\n%s", out)
	}

	// Warm run at a different worker count: served from the cache (worker
	// count is not part of artifact identity) and still byte-identical.
	hitsBefore := s.srv.Store().Hits()
	coldStart := time.Now()
	sn2, _ := s.submit(t, `{"kind":"table3","params":{"small":true,"workers":4}}`)
	s.waitState(t, sn2.ID, serve.StateSucceeded, time.Minute)
	warmWall := time.Since(coldStart)
	_, out2 := s.get(t, "/jobs/"+sn2.ID+"/result")
	if !bytes.Equal(out2, golden) {
		t.Fatalf("warm result differs from golden:\n%s", out2)
	}
	if s.srv.Store().Hits() <= hitsBefore {
		t.Fatal("warm run did not hit the artifact cache")
	}
	if warmWall > 30*time.Second {
		t.Fatalf("warm run took %s; cache apparently not used", warmWall)
	}

	// The event stream replays queued→started→progress→done.
	code, evb := s.get(t, "/jobs/"+sn.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	var types []string
	sc := bufio.NewScanner(bytes.NewReader(evb))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawProgress := false
	for sc.Scan() {
		var ev struct {
			Seq  int    `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		if ev.Type == "progress" {
			sawProgress = true
		}
	}
	if len(types) < 3 || types[0] != "queued" || types[1] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("event shape %v", types)
	}
	if !sawProgress {
		t.Fatal("no progress events in stream")
	}

	// Metrics reflect the two successes and the cache traffic.
	code, mb := s.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"jobs_succeeded_total 2", "artifact_cache_hits_total"} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mb)
		}
	}
}

// TestServeQueueFull: with one slot occupied and the queue at capacity, the
// next submission is rejected with 429 and the rejection is counted.
func TestServeQueueFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Slots: 1, QueueCap: 1, Kinds: testKinds(release)})

	running, _ := s.submit(t, `{"kind":"block"}`)
	s.waitState(t, running.ID, serve.StateRunning, 10*time.Second)
	if _, resp := s.submit(t, `{"kind":"block"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}
	_, resp := s.submit(t, `{"kind":"block"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	if code, b := s.get(t, "/metrics"); code != http.StatusOK || !strings.Contains(string(b), "jobs_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", b)
	}
}

// TestServeRetryAfter: a 429 from a full queue carries a Retry-After
// header — a positive integer number of seconds — and /metrics exposes the
// queue_cap and scheduler_slots capacity gauges clients size backoff with.
func TestServeRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Slots: 1, QueueCap: 1, Kinds: testKinds(release)})

	running, _ := s.submit(t, `{"kind":"block"}`)
	s.waitState(t, running.ID, serve.StateRunning, 10*time.Second)
	if _, resp := s.submit(t, `{"kind":"block"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}
	_, resp := s.submit(t, `{"kind":"block"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want integer seconds in [1,60]", ra)
	}

	code, b := s.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"queue_cap 1", "scheduler_slots 1", "queue_depth 1"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, b)
		}
	}
}

// TestServeCancel: DELETE cancels a running job (state canceled, cause
// recorded) and frees its slot for the next job; canceling a queued job
// never runs it.
func TestServeCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Slots: 1, QueueCap: 4, Kinds: testKinds(release)})

	running, _ := s.submit(t, `{"kind":"block"}`)
	s.waitState(t, running.ID, serve.StateRunning, 10*time.Second)
	queued, _ := s.submit(t, `{"kind":"block"}`)

	// Cancel the queued one first: it must go terminal without running.
	req, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+queued.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %v %v", resp.StatusCode, err)
	}
	s.waitState(t, queued.ID, serve.StateCanceled, 10*time.Second)

	// Cancel the running one: slot frees and a fresh job completes.
	req, _ = http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+running.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	canceled := s.waitState(t, running.ID, serve.StateCanceled, 10*time.Second)
	if !strings.Contains(canceled.Error, "canceled by client") {
		t.Fatalf("cancel cause %q", canceled.Error)
	}
	next, _ := s.submit(t, `{"kind":"system"}`)
	s.waitState(t, next.ID, serve.StateSucceeded, time.Minute)
}

// TestServeSingleflight: two jobs with the same artifact needs share one
// build — the second is a cache hit, visible in the store counters.
func TestServeSingleflight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Slots: 2, QueueCap: 4, Kinds: testKinds(release)})

	a, _ := s.submit(t, `{"kind":"system"}`)
	b, _ := s.submit(t, `{"kind":"system"}`)
	_, outA := s.get(t, "/jobs/"+s.waitState(t, a.ID, serve.StateSucceeded, time.Minute).ID+"/result")
	_, outB := s.get(t, "/jobs/"+s.waitState(t, b.ID, serve.StateSucceeded, time.Minute).ID+"/result")
	if !bytes.Equal(outA, outB) {
		t.Fatalf("shared-artifact jobs disagree: %q vs %q", outA, outB)
	}
	if builds := s.srv.Store().Builds(); builds != 1 {
		t.Fatalf("system artifact built %d times across two jobs, want 1", builds)
	}
	if hits := s.srv.Store().Hits(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestServeCancelSharedBuild: cancelling the job that is building a shared
// artifact must not fail the job waiting on that build — the waiter builds
// the artifact itself and succeeds.
func TestServeCancelSharedBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small ATPG flow")
	}
	held := make(chan struct{})
	var once sync.Once
	kinds := testKinds(make(chan struct{}))
	// testprogram generates the small Rescue test set through the store; with
	// hold set, the build stalls at its first campaign chunk until the job
	// is cancelled.
	kinds["testprogram"] = func(ctx context.Context, rc serve.RunContext, params json.RawMessage) ([]byte, error) {
		var p struct {
			Hold bool `json:"hold"`
		}
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		if p.Hold {
			jobCtx := ctx
			ctx = fault.WithProgress(ctx, func(int64, int64) {
				once.Do(func() { close(held) })
				<-jobCtx.Done()
			})
		}
		sys, err := rc.Env.System(rtl.Small(), 1, rtl.RescueDesign)
		if err != nil {
			return nil, err
		}
		tp, err := rc.Env.TestProgram(ctx, sys, atpg.DefaultGenConfig())
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d vectors\n", tp.Gen.Vectors)), nil
	}
	s := newTestServer(t, serve.Config{Slots: 2, Kinds: kinds})

	a, _ := s.submit(t, `{"kind":"testprogram","params":{"hold":true}}`)
	<-held
	b, _ := s.submit(t, `{"kind":"testprogram","params":{}}`)
	waitParked(t, "rescue/internal/flows.(*Store).do(")

	req, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+a.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	s.waitState(t, a.ID, serve.StateCanceled, time.Minute)
	s.waitState(t, b.ID, serve.StateSucceeded, time.Minute)
	if builds := s.srv.Store().Builds(); builds != 3 {
		t.Fatalf("store builds = %d, want 3 (system, then the test program twice)", builds)
	}
}

// waitParked blocks until some goroutine is blocked on a channel receive
// directly in fn (its first frame outside the runtime).
func waitParked(t *testing.T, fn string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	buf := make([]byte, 1<<20)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.Split(g, "\n")
			if !strings.Contains(lines[0], "[chan receive") {
				continue
			}
			for _, l := range lines[1:] {
				if !strings.HasPrefix(l, "\t") && !strings.HasPrefix(l, "runtime.") {
					if strings.HasPrefix(l, fn) {
						return
					}
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine parked in %s", fn)
		}
		runtime.Gosched()
	}
}

// TestServeBadRequests: unknown kinds are 400 at submission; unknown
// params fail the job rather than being silently ignored.
func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t, serve.Config{})
	if _, resp := s.submit(t, `{"kind":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d, want 400", resp.StatusCode)
	}
	sn, resp := s.submit(t, `{"kind":"table3","params":{"smal":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("typo submit: %d", resp.StatusCode)
	}
	failed := s.waitState(t, sn.ID, serve.StateFailed, 30*time.Second)
	if !strings.Contains(failed.Error, "bad params") {
		t.Fatalf("typo error %q", failed.Error)
	}
	if code, _ := s.get(t, "/jobs/zzz"); code != http.StatusNotFound {
		t.Fatalf("missing job: %d, want 404", code)
	}
}

// streamEvents opens the NDJSON stream and sends event types on a channel
// until the stream closes.
func streamEvents(t *testing.T, url string) (<-chan string, func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan string, 256)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				ch <- ev.Type
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// TestServeDrainResume is the graceful-shutdown contract: SIGTERM-style
// Drain interrupts a running fab job mid-campaign, flushes its checkpoint
// journal, and a fresh server (cold cache, same checkpoint dir) resumes an
// identical resubmission to a report byte-identical to an uninterrupted
// direct run.
func TestServeDrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small fab flow twice")
	}
	ckDir := t.TempDir()
	spec := `{"kind":"fab","params":{"small":true,"dies":150,"workers":1,"warmup":500,"commit":2000}}`

	s1 := newTestServer(t, serve.Config{CheckpointDir: ckDir})
	sn, _ := s1.submit(t, spec)
	// Wait until the job is provably mid-campaign, then drain.
	events, stop := streamEvents(t, s1.ts.URL+"/jobs/"+sn.ID+"/events")
	sawProgress := false
	for typ := range events {
		if typ == "progress" {
			sawProgress = true
			break
		}
	}
	stop()
	if !sawProgress {
		t.Fatal("job finished before any progress event; cannot drain mid-campaign")
	}
	dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	interrupted := s1.waitState(t, sn.ID, serve.StateInterrupted, 10*time.Second)
	if !strings.Contains(interrupted.Error, "draining") {
		t.Fatalf("interrupt cause %q", interrupted.Error)
	}
	// Draining servers refuse new work.
	if _, resp := s1.submit(t, spec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	journals, err := filepath.Glob(filepath.Join(ckDir, "*.ck"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("checkpoint journals after drain: %v (%v)", journals, err)
	}

	// A new server (fresh process stand-in: cold artifact cache, same
	// checkpoint dir) resumes the identical spec.
	s2 := newTestServer(t, serve.Config{CheckpointDir: ckDir})
	sn2, _ := s2.submit(t, spec)
	done := s2.waitState(t, sn2.ID, serve.StateSucceeded, 5*time.Minute)
	_, got := s2.get(t, "/jobs/"+done.ID+"/result")

	// The resumed report must equal a direct, uninterrupted run's.
	var want bytes.Buffer
	if _, err := flows.Fab(context.Background(), &want, flows.FabOpts{
		Small: true, Dies: 150, Workers: 1, Warmup: 500, Commit: 2000,
	}, flows.Env{}); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("resumed report differs from direct run:\n--- resumed\n%s\n--- direct\n%s", got, want.Bytes())
	}
	// The journal is consumed by the successful resume.
	if journals, _ := filepath.Glob(filepath.Join(ckDir, "*.ck")); len(journals) != 0 {
		t.Fatalf("journals left after successful resume: %v", journals)
	}
}
