package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"rescue/internal/fault"
)

// newServer starts a server that the test drains when it ends, so its
// slots and artifact store do not outlive it.
func newServer(t *testing.T, cfg Config) *Server {
	s := New(cfg)
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// runJobs submits n jobs of spec to s one at a time, waits for each to
// finish and returns the last one's report.
func runJobs(t *testing.T, s *Server, spec Spec, n int) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < n; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.After(time.Minute)
		for {
			// A cursor past the log's end returns no events, only the
			// state and the channel closed on the next change.
			_, _, state, changed := j.eventsSince(1 << 30)
			if state.Done() {
				break
			}
			select {
			case <-changed:
			case <-deadline:
				t.Fatalf("job %s did not finish", j.ID)
			}
		}
		res, state, msg := j.result()
		if state != StateSucceeded {
			t.Fatalf("job %s ended %s: %s", j.ID, state, msg)
		}
		out = res
	}
	return out
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServeWarmDictHeap: warm small dict jobs' reports are one backing
// array, the CSV the dictionary artifact holds, so the daemon's live heap
// after 500 of them stays within 2× of its value after 50.
func TestServeWarmDictHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the small dictionary")
	}
	s := newServer(t, Config{})
	spec := Spec{Kind: "dict", Params: json.RawMessage(`{"small":true}`)}
	out50 := runJobs(t, s, spec, 50)
	at50 := liveHeap()
	out500 := runJobs(t, s, spec, 450)
	at500 := liveHeap()
	if len(out50) == 0 || &out50[0] != &out500[0] || len(out50) != len(out500) {
		t.Fatal("two warm dict jobs hold separate copies of the dictionary CSV")
	}
	t.Logf("live heap after 50 dict jobs %.1f MiB, after 500 %.1f MiB", float64(at50)/(1<<20), float64(at500)/(1<<20))
	if at500 > 2*at50 {
		t.Fatalf("live heap grew from %d to %d bytes between 50 and 500 warm dict jobs", at50, at500)
	}
}

// TestServeEventfulJobsHeap: a kind that emits 200 events per job; with
// the job table bounded, the live heap after 3 × MaxFinishedJobs jobs
// stays within 2× of its value after MaxFinishedJobs.
func TestServeEventfulJobsHeap(t *testing.T) {
	kinds := Kinds()
	kinds["eventful"] = func(ctx context.Context, _ RunContext, _ json.RawMessage) ([]byte, error) {
		progress := fault.ProgressFromContext(ctx)
		for c := 0; c < 2; c++ { // two campaigns of one event per percent
			for i := int64(1); i <= 100; i++ {
				progress(i, 100)
			}
		}
		return []byte("eventful\n"), nil
	}
	s := newServer(t, Config{Kinds: kinds})
	spec := Spec{Kind: "eventful"}
	runJobs(t, s, spec, MaxFinishedJobs)
	at1 := liveHeap()
	runJobs(t, s, spec, 2*MaxFinishedJobs)
	at3 := liveHeap()
	t.Logf("live heap after %d jobs %.1f MiB, after %d %.1f MiB", MaxFinishedJobs, float64(at1)/(1<<20),
		3*MaxFinishedJobs, float64(at3)/(1<<20))
	if at3 > 2*at1 {
		t.Fatalf("live heap grew from %d to %d bytes between %d and %d jobs", at1, at3, MaxFinishedJobs, 3*MaxFinishedJobs)
	}
}
