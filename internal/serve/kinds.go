package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"rescue/internal/flows"
)

// RunContext is what the server hands a runner: the flow environment
// (shared artifact store plus this job's checkpoint journal) and the
// server-default campaign worker count.
type RunContext struct {
	Env flows.Env
	// Workers is the server's default campaign concurrency; params that
	// carry their own workers field override it.
	Workers int
	// CheckpointDir is the server's journal directory ("" = checkpointing
	// off). Most kinds use the pre-opened Env.Ck; the sweep kind manages
	// a journal directory of its own under it.
	CheckpointDir string
}

// Runner executes one job kind. The returned bytes are the job's report —
// rendered by the same flows the CLIs print, so they are byte-identical to
// the corresponding command's stdout. On error the partial output is still
// returned for inspection.
type Runner func(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error)

// decode unmarshals params strictly — unknown fields are submission errors,
// not silent typos.
func decode(params json.RawMessage, into any) error {
	if len(params) == 0 || string(params) == "null" {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad params: %w", err)
	}
	return nil
}

// pick resolves a job's workers count: one <= 0 takes the server's
// (cmp.Or would pass a negative count through).
func pick(jobWorkers, serverWorkers int) int {
	if jobWorkers > 0 {
		return jobWorkers
	}
	return serverWorkers
}

// Kinds returns the built-in job kinds. Reports default to timing-free
// output (the deterministic, golden-diffable form); a job may opt into
// timings with "timing": true.
//
// The "shard" kind computes one fault-index window of another kind's
// campaign (see shard.go); it resolves the inner flow against this same
// registry, so kinds added to the returned map are shardable too.
func Kinds() map[string]Runner {
	m := map[string]Runner{
		"table3":    runTable3,
		"dict":      runDict,
		"isolation": runIsolation,
		"yat":       runYAT,
		"fab":       runFab,
		"sweep":     runSweep,
	}
	m["shard"] = shardRunner(m)
	return m
}

// The fixed kinds decode their params straight into the flow's options,
// whose JSON tags are the wire names.

func runTable3(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var o flows.Table3Opts
	if err := decode(params, &o); err != nil {
		return nil, err
	}
	o.Workers = pick(o.Workers, rc.Workers)
	var buf bytes.Buffer
	_, err := flows.Table3(ctx, &buf, o, rc.Env)
	return buf.Bytes(), err
}

func runDict(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var o flows.DictOpts
	if err := decode(params, &o); err != nil {
		return nil, err
	}
	o.Workers = pick(o.Workers, rc.Workers)
	// The CSV is the artifact; the build commentary goes nowhere (clients
	// watch the event stream instead).
	var buf bytes.Buffer
	_, err := flows.DictBuild(ctx, io.Discard, &buf, o, rc.Env)
	return buf.Bytes(), err
}

func runIsolation(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var o flows.IsolationOpts
	if err := decode(params, &o); err != nil {
		return nil, err
	}
	o.Workers = pick(o.Workers, rc.Workers)
	var buf bytes.Buffer
	_, err := flows.Isolation(ctx, &buf, o, rc.Env)
	return buf.Bytes(), err
}

func runYAT(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var o flows.YATOpts
	if err := decode(params, &o); err != nil {
		return nil, err
	}
	o.Workers = pick(o.Workers, rc.Workers)
	var buf bytes.Buffer
	_, err := flows.YAT(ctx, &buf, o, rc.Env)
	return buf.Bytes(), err
}

func runFab(ctx context.Context, rc RunContext, params json.RawMessage) ([]byte, error) {
	var o flows.FabOpts
	if err := decode(params, &o); err != nil {
		return nil, err
	}
	o.Workers = pick(o.Workers, rc.Workers)
	var buf bytes.Buffer
	_, err := flows.Fab(ctx, &buf, o, rc.Env)
	return buf.Bytes(), err
}
