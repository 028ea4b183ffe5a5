package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// State is a job's lifecycle state. Transitions are strictly forward:
//
//	queued → running → succeeded | failed | interrupted
//	queued | running → canceled
//
// interrupted is the drain outcome: the job's campaigns flushed their
// checkpoint journal and an identical resubmission resumes them.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateSucceeded   State = "succeeded"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Done reports whether the state is terminal.
func (s State) Done() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// Event is one entry of a job's event log, streamed over
// GET /jobs/{id}/events as NDJSON. Seq is 1-based and dense over the
// job's full history; synthetic stream-only lines (keepalive, dropped)
// carry Seq 0.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"` // queued, started, progress, output, done, dropped
	// Msg is human-readable detail (the error for a failed done event).
	Msg string `json:"msg,omitempty"`
	// Done/Total carry campaign progress for progress events.
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// State accompanies done events.
	State State `json:"state,omitempty"`
	// Count accompanies dropped markers: how many events the consumer
	// missed because the bounded log evicted them (or the consumer fell
	// past the per-stream lag bound).
	Count int `json:"count,omitempty"`
}

// Spec is the client-submitted description of a job: a kind name and
// kind-specific parameters. Kind and Params alone are the job's cache
// identity — byte-identical pairs share artifacts and checkpoint
// journals regardless of tenant, so a warm submission stays warm across
// tenants and the digest contract of earlier releases is unchanged.
type Spec struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
	// Tenant names the submitting client for fair scheduling; the
	// X-Rescue-Client header overrides it. "" = "default".
	Tenant string `json:"tenant,omitempty"`
	// Class is the priority class: "interactive" or "batch" (default).
	// The X-Rescue-Class header overrides it.
	Class string `json:"class,omitempty"`
	// DeadlineMS, when > 0, asks admission to shed the job up front if
	// the estimated queue wait already exceeds this many milliseconds.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
}

// Job is one submitted unit of work. All mutable fields are guarded by mu;
// readers take snapshots. The changed channel is closed and replaced on
// every mutation, so streamers can wait for news without polling.
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// Tenant is the normalized tenant identity the job was admitted
	// under (header override applied, "" mapped to "default").
	Tenant string `json:"tenant"`

	mu      sync.Mutex
	state   State
	events  []Event
	evBase  int // events evicted from the front of the bounded log
	evCap   int // max retained events
	changed chan struct{}
	output  []byte // the report, once finished
	err     string // failure detail, once finished

	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time

	// ckPath is the job's checkpoint journal on disk, "" when
	// checkpointing is off. Exported over GET /jobs/{id}/journal so a
	// coordinator can salvage an interrupted job's completed chunks.
	ckPath string

	cancel func(error) // context cancellation with cause; set when scheduled

	// pointCtl is the per-point cancellation surface a sweep runner
	// registers while running (nil for every other kind).
	pointCtl pointCanceler
}

// pointCanceler is the slice of sweep.Control the job surface needs:
// cancel one grid point by digest, reporting whether the digest belongs
// to the job's grid.
type pointCanceler interface {
	CancelPoint(digest string) bool
}

// setPointControl registers the running sweep's cancellation control.
func (j *Job) setPointControl(c pointCanceler) {
	j.mu.Lock()
	j.pointCtl = c
	j.mu.Unlock()
}

// pointControl returns the registered control, nil when the job is not a
// running sweep.
func (j *Job) pointControl() pointCanceler {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pointCtl
}

// setCkPath records the job's journal location once the runner opens it.
func (j *Job) setCkPath(path string) {
	j.mu.Lock()
	j.ckPath = path
	j.mu.Unlock()
}

// journalPath returns the job's journal location, if any.
func (j *Job) journalPath() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckPath
}

func newJob(id string, spec Spec, tenant string, evCap int) *Job {
	j := &Job{
		ID:       id,
		Spec:     spec,
		Tenant:   tenant,
		state:    StateQueued,
		evCap:    evCap,
		changed:  make(chan struct{}),
		queuedAt: time.Now(),
	}
	j.append(Event{Type: "queued"})
	return j
}

// append records an event and wakes streamers.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(ev)
}

func (j *Job) appendLocked(ev Event) {
	ev.Seq = j.evBase + len(j.events) + 1
	ev.Time = time.Now()
	if len(j.events) >= j.evCap {
		// Bounded log: evict the oldest event instead of growing without
		// limit. Streamers that already read past the evicted prefix are
		// unaffected; ones that lag see a dropped marker.
		copy(j.events, j.events[1:])
		j.events[len(j.events)-1] = ev
		j.evBase++
	} else {
		j.events = append(j.events, ev)
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// setState moves the job forward and records the transition event. Terminal
// states are sticky: a late transition (e.g. the runner finishing after a
// cancel) is dropped, and the first terminal state wins.
func (j *Job) setState(s State, msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Done() {
		return false
	}
	j.state = s
	switch s {
	case StateRunning:
		j.startedAt = time.Now()
		j.appendLocked(Event{Type: "started"})
	default:
		j.finishedAt = time.Now()
		j.err = msg
		j.appendLocked(Event{Type: "done", State: s, Msg: msg})
	}
	return true
}

// finishOutput stores the completed report. Called before the terminal
// setState so a done event implies the output is readable.
func (j *Job) finishOutput(out []byte) {
	j.mu.Lock()
	j.output = out
	j.mu.Unlock()
}

// Snapshot is the wire representation of a job's status.
type Snapshot struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Tenant     string     `json:"tenant,omitempty"`
	Class      string     `json:"class,omitempty"`
	State      State      `json:"state"`
	Events     int        `json:"events"`
	Error      string     `json:"error,omitempty"`
	QueuedAt   time.Time  `json:"queuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// snapshot returns the job's current wire status.
func (j *Job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	sn := Snapshot{
		ID:       j.ID,
		Kind:     j.Spec.Kind,
		Tenant:   j.Tenant,
		Class:    j.Spec.Class,
		State:    j.state,
		Events:   j.evBase + len(j.events),
		Error:    j.err,
		QueuedAt: j.queuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		sn.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		sn.FinishedAt = &t
	}
	return sn
}

// eventsSince returns events with Seq > after, how many the bounded log
// already evicted past that cursor (the consumer's dropped count), the
// current state, and a channel closed on the next mutation — the
// building blocks of the NDJSON stream.
func (j *Job) eventsSince(after int) (dropped int, evs []Event, state State, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < j.evBase {
		dropped = j.evBase - after
		after = j.evBase
	}
	if rel := after - j.evBase; rel < len(j.events) {
		evs = append(evs, j.events[rel:]...)
	}
	return dropped, evs, j.state, j.changed
}

// result returns the report once the job reached a terminal state.
func (j *Job) result() ([]byte, State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.state, j.err
}

// specDigest is the job's content identity — the checkpoint journal and
// dedup key for byte-identical specs. Kind and raw parameter bytes both
// count; clients that resubmit the same body get the same digest.
func specDigest(spec Spec) string {
	params := strings.TrimSpace(string(spec.Params))
	if params == "" || params == "null" {
		params = "{}"
	}
	return fmt.Sprintf("%s-%x", spec.Kind, hashBytes([]byte(spec.Kind+"\x00"+params)))
}
