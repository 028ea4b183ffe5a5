package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"rescue/internal/serve"
	"rescue/internal/sweep"
)

// sweepSpec is the serve-side test grid: two points that differ only in
// an area-model knob, so they share every netlist/ATPG/perf artifact and
// the job costs one small ATPG campaign.
func sweepSpec() sweep.Spec {
	return sweep.Spec{
		Presets: []string{"paper"},
		Axes:    map[string][]string{"chipkill-scale": {"1", "0.8"}},
		Nodes:   []int{18},
		Small:   true,
		Dies:    40,
		Warmup:  100,
		Commit:  500,
		Workers: 2,
	}
}

func sweepBody(t *testing.T, spec sweep.Spec) string {
	t.Helper()
	params, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return `{"kind":"sweep","params":` + string(params) + `}`
}

func (s *testServer) delete(t *testing.T, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestServeSweepJob is the sweep job kind's end-to-end contract on one
// warm server: a submitted grid runs to a frontier NDJSON result with
// per-point output events; canceling one point by digest (DELETE
// /jobs/{id}/points/{digest}) leaves the rest of the grid intact; and two
// identical submissions return byte-identical frontiers.
func TestServeSweepJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real small sweep flow")
	}
	s := newTestServer(t, serve.Config{Slots: 2, QueueCap: 8})
	spec := sweepSpec()
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("test grid has %d points, want 2", len(pts))
	}
	body := sweepBody(t, spec)

	// First job: cancel the second point while the first is still building
	// its artifacts. The job publishes its control when the run starts, so
	// poll until the cancel lands.
	sn, resp := s.submit(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		code, b := s.delete(t, "/jobs/"+sn.ID+"/points/"+pts[1].Digest)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("point cancel: %d %s", code, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Unknown digests are lookup misses, not conflicts.
	if code, _ := s.delete(t, "/jobs/"+sn.ID+"/points/ffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown point cancel: %d, want 404", code)
	}
	done := s.waitState(t, sn.ID, serve.StateSucceeded, 5*time.Minute)
	_, out := s.get(t, "/jobs/"+done.ID+"/result")
	fr, err := sweep.ParseNDJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("result is not frontier NDJSON: %v\n%s", err, out)
	}
	if len(fr.Points) != 2 {
		t.Fatalf("frontier has %d points, want 2:\n%s", len(fr.Points), out)
	}
	if fr.Points[0].Canceled || fr.Points[0].Error != "" {
		t.Fatalf("surviving point damaged: %+v", fr.Points[0])
	}
	if !fr.Points[1].Canceled {
		t.Fatalf("canceled point not marked canceled: %+v", fr.Points[1])
	}
	// Point cancels on a terminal job are conflicts.
	if code, _ := s.delete(t, "/jobs/"+sn.ID+"/points/"+pts[0].Digest); code != http.StatusConflict {
		t.Fatalf("point cancel after done: %d, want 409", code)
	}

	// Full runs: per-point output events on the stream, and two identical
	// submissions produce byte-identical NDJSON.
	run := func() (string, []byte) {
		sn, _ := s.submit(t, body)
		done := s.waitState(t, sn.ID, serve.StateSucceeded, 5*time.Minute)
		_, out := s.get(t, "/jobs/"+done.ID+"/result")
		return sn.ID, out
	}
	id1, out1 := run()
	_, out2 := run()
	if !bytes.Equal(out1, out2) {
		t.Fatalf("identical sweep submissions differ:\n-- 1 --\n%s\n-- 2 --\n%s", out1, out2)
	}

	code, evb := s.get(t, "/jobs/"+id1+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	var pointLines int
	sc := bufio.NewScanner(bytes.NewReader(evb))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "output" && strings.Contains(ev.Msg, "point ") {
			pointLines++
		}
	}
	if pointLines < 4 { // start + done for each of 2 points
		t.Fatalf("event stream carries %d per-point lines, want >= 4:\n%s", pointLines, evb)
	}
}

// TestServeSweepPointCancelNonSweep: the per-point cancel route is
// specific to running sweeps — other kinds have no point control.
func TestServeSweepPointCancelNonSweep(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestServer(t, serve.Config{Slots: 1, QueueCap: 2, Kinds: testKinds(release)})
	sn, _ := s.submit(t, `{"kind":"block"}`)
	s.waitState(t, sn.ID, serve.StateRunning, 10*time.Second)
	code, b := s.delete(t, "/jobs/"+sn.ID+"/points/abc")
	if code != http.StatusConflict {
		t.Fatalf("point cancel on non-sweep: %d %s, want 409", code, b)
	}
}
