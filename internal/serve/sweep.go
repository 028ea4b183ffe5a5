package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"

	"rescue/internal/flows"
	"rescue/internal/sweep"
)

// jobCtxKey carries the running *Job into runners that integrate with the
// job surface beyond the plain Runner contract — the sweep runner uses it
// to emit per-point output events and to register its per-point
// cancellation control.
type jobCtxKey struct{}

func withJob(ctx context.Context, j *Job) context.Context {
	return context.WithValue(ctx, jobCtxKey{}, j)
}

func jobFromContext(ctx context.Context) *Job {
	j, _ := ctx.Value(jobCtxKey{}).(*Job)
	return j
}

// runSweep executes a design-space sweep job. Params are a sweep.Spec;
// the result is the frontier NDJSON (one line per grid point, Pareto set
// marked) — machine-consumable, byte-identical for identical specs, and
// exactly what a dispatch coordinator merges when points are fanned out.
//
// Each point's start/finish lands on the event stream as an output event,
// and DELETE /jobs/{id}/points/{digest} cancels a single point while the
// rest of the grid keeps running.
//
// When checkpointing is configured the sweep keeps its journals in a
// directory named by the job's spec digest, so a drained sweep resumed by
// an identical resubmission skips every completed point and resumes
// interrupted campaigns at chunk granularity.
func runSweep(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var spec sweep.Spec
	if err := decode(params, &spec); err != nil {
		return nil, err
	}
	spec.Workers = pick(spec.Workers, rc.Workers)
	o := sweep.Options{Env: flows.Env{Store: rc.Env.Store}}
	j := jobFromContext(ctx)
	if j != nil {
		// Publish the control only once it knows the whole grid: a point
		// cancel is then accepted from the moment the job can see one.
		pts, err := spec.Expand()
		if err != nil {
			return nil, err
		}
		ctl := sweep.NewControl(pts)
		j.setPointControl(ctl)
		o.Control = ctl
		o.OnPoint = func(ev sweep.PointEvent) {
			j.append(Event{Type: "output", Msg: ev.Msg})
		}
	}
	if rc.CheckpointDir != "" && j != nil {
		dir := filepath.Join(rc.CheckpointDir, specDigest(j.Spec)+".sweep")
		if _, err := os.Stat(dir); err == nil {
			o.Resume = true
			j.append(Event{Type: "output", Msg: "resuming from sweep journal"})
		}
		o.CheckpointDir = dir
	}
	fr, err := sweep.Run(ctx, spec, o)
	if err != nil {
		return nil, err
	}
	if o.CheckpointDir != "" {
		os.Remove(o.CheckpointDir) // empty after a clean completion
	}
	var buf bytes.Buffer
	if err := fr.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
