package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rescue/internal/dispatch"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/rtl"
	"rescue/internal/scan"
	"rescue/internal/serve"
	"rescue/internal/sweep"
)

// miniFlow is the test job kind: one small deterministic campaign rendered
// as a text report. Every execution — coordinator or worker — rebuilds the
// identical sim and pattern set, so the content-addressed shard keys line
// up exactly as they would for two rescued processes loading the same
// design. Registered on the workers (so shard jobs can resolve it) and
// executed directly by the coordinator under a shard plan.
func miniFlow(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
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
	res, st, err := camp.RunCheckpoint(ctx, nil, faults)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for i, r := range res {
		fmt.Fprintf(&buf, "%4d %v %v\n", i, r.Detected, r.FailObs)
	}
	fmt.Fprintf(&buf, "faults=%d detected=%d\n", st.Faults, st.Detected)
	return buf.Bytes(), nil
}

// newWorker starts one in-process rescued worker that knows the mini kind.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	kinds := serve.Kinds()
	kinds["mini"] = miniFlow
	srv := serve.New(serve.Config{Kinds: kinds, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func workerURLs(servers ...*httptest.Server) []string {
	urls := make([]string, len(servers))
	for i, s := range servers {
		urls[i] = s.URL
	}
	return urls
}

// runCoordinator executes the mini flow locally under the pool's shard
// plan — the same wiring rescue-shard uses.
func runCoordinator(t *testing.T, p *dispatch.Pool) []byte {
	t.Helper()
	plan, err := p.Plan(serve.Spec{Kind: "mini"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.WithShardPlan(context.Background(), plan)
	out, err := miniFlow(ctx, serve.RunContext{Workers: 2}, nil)
	if err != nil {
		t.Fatalf("coordinator flow: %v", err)
	}
	return out
}

func serialGolden(t *testing.T) []byte {
	t.Helper()
	out, err := miniFlow(context.Background(), serve.RunContext{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDispatchDeterminism: the merged distributed result is byte-identical
// to the serial run at any shard count, with every shard computed remotely.
func TestDispatchDeterminism(t *testing.T) {
	want := serialGolden(t)
	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := dispatch.NewPool(dispatch.Config{
				Workers:   workerURLs(w1, w2, w3),
				Shards:    shards,
				MinFaults: 1,
				Seed:      42,
				Logf:      t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			got := runCoordinator(t, p)
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed output differs from serial golden at %d shards", shards)
			}
			st := p.Stats()
			if st.Completed != int64(shards) {
				t.Fatalf("completed %d shards remotely, want %d", st.Completed, shards)
			}
			if st.Fallbacks != 0 {
				t.Fatalf("%d shards fell back locally, want 0", st.Fallbacks)
			}
		})
	}
}

// TestDispatchChaosKill: a worker killed mid-campaign loses its in-flight
// shards; the pool reassigns them to survivors and the merged output stays
// byte-identical to the serial golden.
func TestDispatchChaosKill(t *testing.T) {
	want := serialGolden(t)
	servers := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}

	var killMu sync.Mutex
	killed := map[int]bool{}
	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     workerURLs(servers...),
		Shards:      6,
		MinFaults:   1,
		Seed:        7,
		BackoffBase: 5 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		HealthEvery: 50 * time.Millisecond,
		Logf:        t.Logf,
		Chaos: dispatch.ChaosConfig{
			KillWorkers: 1,
			AfterShards: 1,
			Kill: func(i int) error {
				killMu.Lock()
				defer killMu.Unlock()
				if !killed[i] {
					killed[i] = true
					servers[i].CloseClientConnections()
					servers[i].Close()
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got := runCoordinator(t, p)
	if !bytes.Equal(got, want) {
		t.Fatal("chaos run output differs from serial golden")
	}
	st := p.Stats()
	if st.Killed != 1 {
		t.Fatalf("chaos killed %d workers, want 1", st.Killed)
	}
	if st.Completed == 0 {
		t.Fatal("no shards completed remotely")
	}
}

// TestDispatchAllWorkersDead: with every worker unreachable the campaign
// still completes — every shard falls back to local execution and the
// output matches the serial golden.
func TestDispatchAllWorkersDead(t *testing.T) {
	want := serialGolden(t)

	// A freshly released port: connections are refused, not hung.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     []string{dead, dead},
		Shards:      3,
		MinFaults:   1,
		RetryBudget: 1,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		HealthEvery: time.Hour, // never revive mid-test
		Seed:        1,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got := runCoordinator(t, p)
	if !bytes.Equal(got, want) {
		t.Fatal("all-dead fallback output differs from serial golden")
	}
	st := p.Stats()
	if st.Completed != 0 {
		t.Fatalf("completed %d shards on dead workers", st.Completed)
	}
	if st.Fallbacks != 3 {
		t.Fatalf("%d local fallbacks, want 3", st.Fallbacks)
	}
}

// hungWorker fakes a rescued that accepts jobs and then goes silent: the
// event stream sends headers and nothing else. It reports healthy the
// whole time — only the heartbeat watchdog can catch it. Records whether
// the coordinator cancelled the abandoned job.
type hungWorker struct {
	ts       *httptest.Server
	mu       sync.Mutex
	deleted  []string
	accepted int
}

func newHungWorker(t *testing.T) *hungWorker {
	h := &hungWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		h.accepted++
		id := fmt.Sprintf("hung-%d", h.accepted)
		h.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			h.mu.Lock()
			h.deleted = append(h.deleted, strings.TrimPrefix(r.URL.Path, "/jobs/"))
			h.mu.Unlock()
			w.WriteHeader(http.StatusOK)
			return
		}
		// The event stream: headers, then silence until the client leaves.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	})
	h.ts = httptest.NewServer(mux)
	t.Cleanup(h.ts.Close)
	return h
}

func (h *hungWorker) cancels() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.deleted...)
}

// TestDispatchHungWorker: a worker that accepts a shard and never emits an
// event trips the heartbeat watchdog; the coordinator cancels the
// abandoned job (so its late result is never read), reassigns the shard to
// a live worker, and the merged output is still byte-identical.
func TestDispatchHungWorker(t *testing.T) {
	want := serialGolden(t)
	hung := newHungWorker(t)
	live := newWorker(t)

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     []string{hung.ts.URL, live.URL},
		Shards:      2,
		MinFaults:   1,
		Heartbeat:   2 * time.Second, // well above the live worker's silent build, even under -race
		BackoffBase: time.Millisecond,
		BackoffCap:  10 * time.Millisecond,
		HealthEvery: time.Hour, // the hung worker reports healthy; don't revive it after the watchdog fires
		Seed:        3,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got := runCoordinator(t, p)
	if !bytes.Equal(got, want) {
		t.Fatal("hung-worker run output differs from serial golden")
	}
	st := p.Stats()
	if st.Completed != 2 {
		t.Fatalf("completed %d shards remotely, want 2", st.Completed)
	}
	if st.Retries == 0 {
		t.Fatal("expected at least one retry after the heartbeat timeout")
	}
	if len(hung.cancels()) == 0 {
		t.Fatal("coordinator never cancelled the abandoned job on the hung worker")
	}
}

// TestDispatchBusyWorker: a 429 from a saturated worker is not a failure —
// the pool honors Retry-After (with jitter), keeps the worker in rotation,
// and completes once the queue drains.
func TestDispatchBusyWorker(t *testing.T) {
	want := serialGolden(t)

	release := make(chan struct{})
	kinds := serve.Kinds()
	kinds["mini"] = miniFlow
	kinds["block"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		case <-release:
			return []byte("released\n"), nil
		}
	}
	srv := serve.New(serve.Config{Kinds: kinds, Workers: 2, QueueCap: 1, Slots: 1})
	h := srv.Handler()
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		// Unblock the queue once dispatch has hit a 429.
		if sw.status == http.StatusTooManyRequests {
			once.Do(func() { close(release) })
		}
	}))
	t.Cleanup(ts.Close)

	// Saturate: one blocker holds the slot, a second fills the queue.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"block"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker %d: HTTP %d", i, resp.StatusCode)
		}
	}

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     []string{ts.URL},
		Shards:      1,
		MinFaults:   1,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
		RetryBudget: 100,
		Seed:        9,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got := runCoordinator(t, p)
	if !bytes.Equal(got, want) {
		t.Fatal("busy-worker run output differs from serial golden")
	}
	st := p.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed %d shards remotely, want 1", st.Completed)
	}
	if st.Retries == 0 {
		t.Fatal("expected retries while the worker queue was full")
	}
	if st.Fallbacks != 0 {
		t.Fatalf("%d fallbacks, want 0: 429 must not exhaust the pool", st.Fallbacks)
	}
}

// statusWriter records the status code a handler sends.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// TestDispatchConfigValidation pins the constructor's and Plan's error
// cases.
func TestDispatchConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  dispatch.Config
	}{
		{"no workers", dispatch.Config{}},
		{"chaos without kill", dispatch.Config{
			Workers: []string{"http://x"},
			Chaos:   dispatch.ChaosConfig{KillWorkers: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := dispatch.NewPool(tc.cfg); err == nil {
				t.Fatal("NewPool accepted a bad config")
			}
		})
	}

	t.Run("nested shard", func(t *testing.T) {
		p, err := dispatch.NewPool(dispatch.Config{Workers: []string{"http://x"}, HealthEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := p.Plan(serve.Spec{Kind: "shard"}); err == nil {
			t.Fatal("Plan accepted a nested shard flow")
		}
	})
}

// corruptingProxy fronts a worker and flips one byte — the first digit of
// the sealed digest — in every GET /jobs/{id}/result body, so each result
// it serves fails verification. Everything else passes through untouched.
func corruptingProxy(t *testing.T, target *httptest.Server) *httptest.Server {
	t.Helper()
	u, err := url.Parse(target.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.FlushInterval = -1 // stream job events as they arrive
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.Method != http.MethodGet || !strings.HasSuffix(resp.Request.URL.Path, "/result") {
			return nil
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if i := bytes.Index(b, []byte(`"digest":"`)); i >= 0 {
			i += len(`"digest":"`)
			b[i] ^= 1
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		resp.ContentLength = int64(len(b))
		resp.Header.Set("Content-Length", strconv.Itoa(len(b)))
		return nil
	}
	ts := httptest.NewServer(rp)
	t.Cleanup(ts.Close)
	return ts
}

// TestDispatchCorruptResult: a worker whose results arrive corrupted is
// caught by the shard check inside the retry loop, not by the campaign's
// merge-time verification — the shard is retried on the healthy worker,
// nothing falls back to local execution, and the merged output is
// byte-identical to the serial golden.
func TestDispatchCorruptResult(t *testing.T) {
	want := serialGolden(t)
	bad := corruptingProxy(t, newWorker(t))
	good := newWorker(t)

	p, err := dispatch.NewPool(dispatch.Config{
		Workers:     workerURLs(bad, good),
		Shards:      2,
		MinFaults:   1,
		BackoffBase: time.Millisecond,
		BackoffCap:  10 * time.Millisecond,
		HealthEvery: time.Hour, // the proxy answers /healthz; keep it down once suspected
		Seed:        5,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got := runCoordinator(t, p)
	if !bytes.Equal(got, want) {
		t.Fatal("corrupt-result run output differs from serial golden")
	}
	st := p.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("%d shards fell back locally, want 0: a rejected result must be retried remotely", st.Fallbacks)
	}
	if st.Retries < 1 {
		t.Fatal("expected at least one retry after a corrupt result")
	}
	if st.Completed != 2 {
		t.Fatalf("completed %d shards remotely, want 2", st.Completed)
	}
}

// TestDispatchExecJobSweep: grid points fanned out to worker daemons as
// single-point sweep jobs (ExecJob with no result check) merge into a
// frontier byte-identical to the all-local run, with no local fallbacks.
func TestDispatchExecJobSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small sweep flow locally and on workers")
	}
	spec := sweep.Spec{
		Presets:     []string{"paper"},
		Axes:        map[string][]string{"chipkill-scale": {"1", "0.8"}},
		Nodes:       []int{18},
		Small:       true,
		Dies:        40,
		Warmup:      100,
		Commit:      500,
		Workers:     2,
		Concurrency: 2,
	}
	toNDJSON := func(fr *sweep.Frontier) []byte {
		var buf bytes.Buffer
		if err := fr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local, err := sweep.Run(context.Background(), spec, sweep.Options{Env: flows.Env{Store: flows.NewStore()}})
	if err != nil {
		t.Fatal(err)
	}
	want := toNDJSON(local)

	w1, w2 := newWorker(t), newWorker(t)
	p, err := dispatch.NewPool(dispatch.Config{
		Workers: workerURLs(w1, w2),
		Seed:    11,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var fallbacks int
	var mu sync.Mutex
	remote, err := sweep.Run(context.Background(), spec, sweep.Options{
		Env: flows.Env{Store: flows.NewStore()},
		Remote: func(ctx context.Context, one sweep.Spec, _ sweep.Point) ([]byte, error) {
			body, err := json.Marshal(one)
			if err != nil {
				return nil, err
			}
			return p.ExecJob(ctx, serve.Spec{Kind: "sweep", Params: body}, nil)
		},
		OnPoint: func(ev sweep.PointEvent) {
			if ev.Phase == "fallback" {
				mu.Lock()
				fallbacks++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := toNDJSON(remote); !bytes.Equal(got, want) {
		t.Fatalf("remote frontier differs from local:\n-- local --\n%s\n-- remote --\n%s", want, got)
	}
	if fallbacks != 0 {
		t.Fatalf("%d points fell back locally, want 0", fallbacks)
	}
	if st := p.Stats(); st.Completed != 2 {
		t.Fatalf("completed %d jobs remotely, want 2", st.Completed)
	}
}

// TestDispatchTenantTag: the coordinator's tenant tag rides every shard
// submission as X-Rescue-Client, so worker-side per-tenant metrics
// attribute the shard load to the originating campaign — and the merged
// output is still byte-identical to the untagged serial run.
func TestDispatchTenantTag(t *testing.T) {
	want := serialGolden(t)
	w := newWorker(t)
	p, err := dispatch.NewPool(dispatch.Config{
		Workers:   workerURLs(w),
		Shards:    2,
		MinFaults: 1,
		Seed:      7,
		Tenant:    "campaign-a",
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := runCoordinator(t, p); !bytes.Equal(got, want) {
		t.Fatal("tenant-tagged dispatch changed the merged output")
	}
	resp, err := http.Get(w.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "tenant_campaign_a_admitted_total 2") {
		t.Fatalf("worker metrics do not attribute shard jobs to the tenant:\n%s", b)
	}
}
