package loadgen_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rescue/internal/fault"
	"rescue/internal/loadgen"
	"rescue/internal/serve"
)

// echoKinds returns a serve kind set with one fast test kind: "echo"
// sleeps params.ms milliseconds and succeeds. It gives the firing engine
// a real daemon — bounded queue, 429 + Retry-After, event streams — at
// millisecond job cost.
func echoKinds() map[string]serve.Runner {
	return map[string]serve.Runner{
		"echo": func(ctx context.Context, rc serve.RunContext, params json.RawMessage) ([]byte, error) {
			var p struct {
				MS   int   `json:"ms"`
				Seed int64 `json:"seed"`
			}
			json.Unmarshal(params, &p)
			select {
			case <-time.After(time.Duration(p.MS) * time.Millisecond):
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
			return []byte("ok\n"), nil
		},
	}
}

func echoProfiles(ms int) []loadgen.Profile {
	return []loadgen.Profile{
		{Kind: "echo", Weight: 1, SeedKey: "seed",
			Params: map[string]any{"ms": ms}},
	}
}

// TestRunEndToEnd drives a compiled schedule through a live serve.Server
// over HTTP: every request must complete, the report must account for all
// of them, and the SLO gate must pass on a generous floor and trip on an
// absurd one.
func TestRunEndToEnd(t *testing.T) {
	srv := serve.New(serve.Config{Slots: 4, QueueCap: 64, Kinds: echoKinds()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		Seed:      3,
		Clients:   5,
		Duration:  600 * time.Millisecond,
		RPS:       50,
		Skew:      1,
		HitRatio:  0.7,
		BurstFrac: 0.4,
		Profiles:  echoProfiles(2),
	}
	sch, err := loadgen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loadgen.Run(context.Background(), sch, loadgen.Options{
		BaseURL:     ts.URL,
		Prewarm:     true,
		SampleEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Results) != len(sch.Requests) {
		t.Fatalf("recorded %d results for %d requests", len(stats.Results), len(sch.Requests))
	}
	for _, rr := range stats.Results {
		if !rr.OK() {
			t.Fatalf("request %d (%s) ended %s: %s", rr.Seq, rr.Kind, rr.State, rr.Err)
		}
		if rr.TotalMS <= 0 || rr.TotalMS < rr.SubmitMS {
			t.Fatalf("request %d has nonsense latency: submit %.2fms total %.2fms",
				rr.Seq, rr.SubmitMS, rr.TotalMS)
		}
	}
	if stats.Slots != 4 {
		t.Fatalf("sampled scheduler_slots = %d, want 4", stats.Slots)
	}

	r := loadgen.BuildReport(cfg, sch, stats)
	if r.Requests != len(sch.Requests) || r.Errors != 0 {
		t.Fatalf("report accounting: %d requests, %d errors", r.Requests, r.Errors)
	}
	if r.Warm.Count+r.Cold.Count != r.Requests {
		t.Fatalf("warm %d + cold %d != %d", r.Warm.Count, r.Cold.Count, r.Requests)
	}
	if r.Warm.P99MS < r.Warm.P50MS || r.Warm.MaxMS < r.Warm.P99MS {
		t.Fatalf("warm percentiles not monotone: %+v", r.Warm)
	}
	if r.ThroughputRPS <= 0 {
		t.Fatalf("throughput %.2f, want > 0", r.ThroughputRPS)
	}
	if r.Digest != sch.Digest() {
		t.Fatal("report digest != schedule digest")
	}

	if v := r.CheckSLOs(time.Minute, 0); len(v) != 0 {
		t.Fatalf("generous SLO violated: %v", v)
	}
	if v := r.CheckSLOs(time.Microsecond, 0); len(v) == 0 {
		t.Fatal("absurd 1µs warm-p99 SLO not violated")
	}
	if !r.SLO.Checked || len(r.SLO.Violations) == 0 {
		t.Fatalf("SLO verdict not recorded in report: %+v", r.SLO)
	}
}

// TestRunBackoff: a tiny queue under a burst forces 429s; the generator
// must honor Retry-After, retry, and land every request without loss.
func TestRunBackoff(t *testing.T) {
	srv := serve.New(serve.Config{Slots: 1, QueueCap: 1, Kinds: echoKinds()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		Seed:     9,
		Clients:  2,
		Duration: 300 * time.Millisecond,
		RPS:      40,
		HitRatio: 1,
		Profiles: echoProfiles(50),
	}
	sch, err := loadgen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Requests) < 6 {
		t.Fatalf("schedule too small to overflow the queue: %d requests", len(sch.Requests))
	}
	stats, err := loadgen.Run(context.Background(), sch, loadgen.Options{
		BaseURL:    ts.URL,
		MaxRetries: 200,
		RetryCap:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := loadgen.BuildReport(cfg, sch, stats)
	if r.Errors != 0 || r.Rejected != 0 {
		t.Fatalf("lost requests: %d errors (%d rejected) of %d", r.Errors, r.Rejected, r.Requests)
	}
	if r.Retries == 0 {
		t.Fatal("queue never overflowed: expected 429-backoff retries")
	}
	if r.QueueDepthMax < 1 {
		t.Fatalf("queue depth never observed above 0 (max %d)", r.QueueDepthMax)
	}
}

// TestRunRejected: with retries exhausted, over-capacity requests are
// recorded as rejected and the error-rate floor trips.
func TestRunRejected(t *testing.T) {
	srv := serve.New(serve.Config{Slots: 1, QueueCap: 1, Kinds: echoKinds()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		Seed:     5,
		Clients:  2,
		Duration: 200 * time.Millisecond,
		RPS:      60,
		HitRatio: 1,
		Profiles: echoProfiles(400),
	}
	sch, err := loadgen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loadgen.Run(context.Background(), sch, loadgen.Options{
		BaseURL:    ts.URL,
		MaxRetries: 1,
		RetryCap:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := loadgen.BuildReport(cfg, sch, stats)
	if r.Rejected == 0 {
		t.Fatalf("expected rejected requests under a saturated 1-slot queue: %+v", r)
	}
	if v := r.CheckSLOs(0, 0); len(v) == 0 {
		t.Fatal("zero-error-rate floor not violated despite rejections")
	}
}

// TestRunSlowReaders: a slow reader replays a chatty job's event stream
// only after the job finishes, by which time the daemon's 16-event log
// has evicted most of it; the replay must still end succeeded and count
// the evicted events through the dropped marker.
func TestRunSlowReaders(t *testing.T) {
	kinds := serve.Kinds()
	kinds["chatty"] = func(ctx context.Context, rc serve.RunContext, _ json.RawMessage) ([]byte, error) {
		progress := fault.ProgressFromContext(ctx)
		for i := int64(1); i <= 100; i++ {
			progress(i, 100)
		}
		return []byte("chatty done\n"), nil
	}
	srv := serve.New(serve.Config{Slots: 2, EventLogCap: 16, Kinds: kinds})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := loadgen.Config{
		Seed:     4,
		Clients:  2,
		Duration: 300 * time.Millisecond,
		RPS:      20,
		HitRatio: 1,
		Profiles: []loadgen.Profile{{Kind: "chatty", Weight: 1}},
	}
	sch, err := loadgen.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := 2
	stats, err := loadgen.Run(context.Background(), sch, loadgen.Options{
		BaseURL:       ts.URL,
		SlowReaders:   slow,
		SlowReadDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range stats.Results {
		if !rr.OK() {
			t.Fatalf("request %d ended %s: %s", rr.Seq, rr.State, rr.Err)
		}
		if rr.Seq <= slow && rr.Dropped == 0 {
			t.Fatalf("slow reader %d counted no dropped events", rr.Seq)
		}
	}
	if stats.DropMarkers < slow || stats.DroppedEvents < slow*(103-16) {
		t.Fatalf("run counted %d drop markers / %d dropped events, want >= %d / %d",
			stats.DropMarkers, stats.DroppedEvents, slow, slow*(103-16))
	}
}

// TestRunRetryAfterFloor: a 429 without a usable Retry-After hint still
// backs off for loadgen's 100ms floor before resubmitting.
func TestRunRetryAfterFloor(t *testing.T) {
	for _, header := range []string{"", "soon"} {
		var submits atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			if submits.Add(1) == 1 {
				if header != "" {
					w.Header().Set("Retry-After", header)
				}
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.Snapshot{ID: "j-1"})
		})
		mux.HandleFunc("GET /jobs/j-1/events", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(serve.Event{Type: "done", State: serve.StateSucceeded})
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {})
		ts := httptest.NewServer(mux)

		sch := &loadgen.Schedule{Requests: []loadgen.Request{
			{Seq: 1, Kind: "echo", Body: json.RawMessage(`{"kind":"echo"}`)},
		}}
		stats, err := loadgen.Run(context.Background(), sch, loadgen.Options{BaseURL: ts.URL})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		rr := stats.Results[0]
		if !rr.OK() || rr.Retries != 1 {
			t.Fatalf("Retry-After %q: request ended %s after %d retries (%s)", header, rr.State, rr.Retries, rr.Err)
		}
		if rr.SubmitMS < 100 {
			t.Fatalf("Retry-After %q: resubmitted after %.1fms, want the 100ms floor", header, rr.SubmitMS)
		}
	}
}
