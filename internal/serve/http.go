package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rescue/internal/obs"
	"rescue/internal/sched"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs              submit {kind, params}; 202 + job snapshot
//	GET    /jobs              list all jobs
//	GET    /jobs/{id}         one job's snapshot
//	GET    /jobs/{id}/result  the finished report (text/plain)
//	GET    /jobs/{id}/events  NDJSON event stream: replay, then live until done
//	GET    /jobs/{id}/journal the job's checkpoint journal (NDJSON), if any;
//	                          a running job's may end in a torn record
//	DELETE /jobs/{id}         cancel a queued or running job; 409 if already terminal
//	GET    /metrics           obs text format
//	GET    /healthz           200 ok / 503 draining
//	/debug/pprof/...          net/http/pprof
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.Handle("/metrics", obs.Handler(s.reg))
	mux.HandleFunc("/healthz", s.handleHealth)
	obs.AttachPprof(mux)
	return mux
}

// Serve is a daemon's main loop: it runs the API on addr until ctx is
// done, then drains — admission stops, running jobs flush their checkpoint
// journals within drainTimeout, and the listener closes. It prints
// "listening on <addr>" on stdout once the listener is bound, which is how
// scripts and rescue-shard's -spawn find a daemon started on port 0, and
// "drained; exiting" after a clean drain.
func (s *Server) Serve(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	hs.Shutdown(dctx)
	fmt.Println("drained; exiting")
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	case http.MethodPost:
		var spec Spec
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, "bad job spec: %v", err)
			return
		}
		// Headers override the spec fields: proxies and dispatch
		// coordinators tag traffic without rewriting job bodies (which
		// would change the artifact/checkpoint identity).
		if h := r.Header.Get("X-Rescue-Client"); h != "" {
			spec.Tenant = h
		}
		if h := r.Header.Get("X-Rescue-Class"); h != "" {
			spec.Class = h
		}
		j, err := s.Submit(spec)
		var shed *sched.ShedError
		switch {
		case errors.As(err, &shed):
			// Per-tenant Retry-After makes client backoff principled:
			// this tenant's estimated queue-drain time, not a guess and
			// not some other tenant's backlog.
			w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, ErrUnknownKind), errors.Is(err, ErrBadSpec):
			writeErr(w, http.StatusBadRequest, "%v", err)
		case err != nil:
			writeErr(w, http.StatusInternalServerError, "%v", err)
		default:
			writeJSON(w, http.StatusAccepted, j.snapshot())
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.snapshot())
	case sub == "" && r.Method == http.MethodDelete:
		// A cancel racing a job that already reached a terminal state is a
		// conflict, not a lookup miss: the job exists, its outcome is just
		// no longer negotiable. 409 lets coordinators distinguish "too
		// late" (result may be worth fetching) from "never existed".
		if sn := j.snapshot(); sn.State.Done() {
			writeErr(w, http.StatusConflict, "job %s already %s; cancel has no effect", id, sn.State)
			return
		}
		s.Cancel(id)
		writeJSON(w, http.StatusOK, j.snapshot())
	case sub == "result" && r.Method == http.MethodGet:
		s.handleResult(w, j)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, j)
	case sub == "journal" && r.Method == http.MethodGet:
		s.handleJournal(w, j)
	case strings.HasPrefix(sub, "points/") && r.Method == http.MethodDelete:
		s.handlePointCancel(w, j, strings.TrimPrefix(sub, "points/"))
	default:
		writeErr(w, http.StatusNotFound, "no route /jobs/%s/%s", id, sub)
	}
}

// handlePointCancel cancels one grid point of a running sweep job
// (DELETE /jobs/{id}/points/{digest}). The rest of the grid keeps
// running; the canceled point renders as canceled in the frontier. Only a
// running sweep has cancelable points — other kinds and terminal jobs are
// conflicts, an unknown digest is a lookup miss.
func (s *Server) handlePointCancel(w http.ResponseWriter, j *Job, digest string) {
	if sn := j.snapshot(); sn.State.Done() {
		writeErr(w, http.StatusConflict, "job %s already %s; point cancel has no effect", j.ID, sn.State)
		return
	}
	ctl := j.pointControl()
	if ctl == nil {
		writeErr(w, http.StatusConflict, "job %s has no cancelable points (not a running sweep)", j.ID)
		return
	}
	if !ctl.CancelPoint(digest) {
		writeErr(w, http.StatusNotFound, "job %s has no point %q", j.ID, digest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.ID, "point": digest, "canceled": true})
}

// handleJournal exports the job's checkpoint journal — the digest-sealed
// record of its campaigns' completed fault ranges. Interrupted jobs are the
// interesting case: the journal is what an identical resubmission (or an
// external coordinator) resumes from. Succeeded jobs have consumed and
// removed theirs. A running job's journal can be read mid-append, so its
// export may end in a torn record; loading the export drops that record.
func (s *Server) handleJournal(w http.ResponseWriter, j *Job) {
	path := j.journalPath()
	if path == "" {
		writeErr(w, http.StatusNotFound, "job %s has no checkpoint journal (checkpointing disabled)", j.ID)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s journal unavailable: %v", j.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(b)
}

func (s *Server) handleResult(w http.ResponseWriter, j *Job) {
	out, state, errMsg := j.result()
	if !state.Done() {
		writeErr(w, http.StatusConflict, "job %s is %s; result not ready", j.ID, state)
		return
	}
	if state != StateSucceeded {
		writeErr(w, http.StatusConflict, "job %s %s: %s", j.ID, state, errMsg)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out)
}

// keepaliveEvery is the idle interval after which handleEvents emits a
// synthetic keepalive line (not part of the job's event log, seq 0). Long
// quiet stretches — a job waiting in the queue, a flow building artifacts
// before its first campaign — would otherwise be indistinguishable from a
// dead server to a streaming client with a liveness timeout, such as the
// dispatch coordinator's heartbeat watchdog.
const keepaliveEvery = 10 * time.Second

// handleEvents streams the job's event log as NDJSON: everything still
// retained, then live appends until the job reaches a terminal state or
// the client goes away. Each line is one Event; idle periods carry
// keepalives. The stream is bounded on both ends: the job's log evicts
// old events past EventLogCap, and a consumer more than maxStreamLag
// events behind is skipped ahead — either case surfaces as an explicit
// {"type":"dropped","count":N} marker (seq 0, like keepalives) instead
// of silently pinning server memory on a slow reader.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idle := time.NewTimer(keepaliveEvery)
	defer idle.Stop()
	after := 0
	replay := true
	for {
		dropped, evs, state, changed := j.eventsSince(after)
		// The initial replay of retained history is part of the API
		// contract (and already bounded by the log cap); the lag clip
		// only applies once the stream is live and the consumer proves
		// unable to keep up with it.
		if !replay {
			if lag := len(evs) - maxStreamLag; lag > 0 {
				dropped += lag
				evs = evs[lag:]
			}
		}
		replay = false
		if dropped > 0 {
			if err := enc.Encode(Event{Type: "dropped", Time: time.Now(), Count: dropped}); err != nil {
				return
			}
			after += dropped
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		after += len(evs)
		if len(evs) > 0 || dropped > 0 {
			if fl != nil {
				fl.Flush()
			}
		}
		if state.Done() {
			// Drain any events appended between the snapshot and now.
			if d, evs, _, _ := j.eventsSince(after); len(evs) == 0 && d == 0 {
				return
			}
			continue
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(keepaliveEvery)
		select {
		case <-changed:
		case <-idle.C:
			if err := enc.Encode(Event{Type: "keepalive", Time: time.Now()}); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
