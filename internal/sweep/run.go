package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/fab"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/rtl"
)

// ErrPointCanceled is the cancellation cause for a single sweep point
// canceled through a Control — the rest of the grid keeps running.
var ErrPointCanceled = errors.New("sweep: point canceled")

// Control provides per-point cancellation for an in-flight sweep: the
// serving layer registers one and routes point-cancel requests through
// it. Canceling an unknown digest is refused; canceling a finished point
// is a no-op that still reports success (the result stands).
type Control struct {
	mu       sync.Mutex
	known    map[string]bool
	canceled map[string]bool
	cancels  map[string]context.CancelCauseFunc
}

// NewControl returns a control over the grid pts (the spec's Expand). It
// knows every digest from the start, so a cancel that lands before Run
// schedules the point still takes effect.
func NewControl(pts []Point) *Control {
	c := &Control{
		known:    make(map[string]bool, len(pts)),
		canceled: map[string]bool{},
		cancels:  map[string]context.CancelCauseFunc{},
	}
	for _, p := range pts {
		c.known[p.Digest] = true
	}
	return c
}

// CancelPoint cancels one point by digest. It reports whether the digest
// belongs to the sweep's grid.
func (c *Control) CancelPoint(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.known[digest] {
		return false
	}
	c.canceled[digest] = true
	if cancel := c.cancels[digest]; cancel != nil {
		cancel(ErrPointCanceled)
	}
	return true
}

// arm wires a point's context for cancellation and reports whether the
// point was already canceled before starting.
func (c *Control) arm(ctx context.Context, digest string) (context.Context, func(), bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canceled[digest] {
		return ctx, func() {}, true
	}
	pctx, cancel := context.WithCancelCause(ctx)
	c.cancels[digest] = cancel
	disarm := func() {
		c.mu.Lock()
		delete(c.cancels, digest)
		c.mu.Unlock()
		cancel(nil)
	}
	return pctx, disarm, false
}

// PointEvent is one progress notification from a running sweep.
type PointEvent struct {
	Index  int
	Total  int
	Digest string
	// Phase: "start", "done", "cached" (journal hit), "remote" (executed
	// on a shard worker), "fallback" (remote failed, ran locally),
	// "canceled", "failed".
	Phase string
	Msg   string
}

// RemoteFunc executes one point somewhere else — typically as a sweep job
// on a worker daemon — and returns the single-point frontier NDJSON. The
// engine verifies the returned point's digest before accepting it, and
// falls back to local execution on error.
type RemoteFunc func(ctx context.Context, spec Spec, pt Point) ([]byte, error)

// Options configures a sweep run. The zero value runs everything locally,
// sequentially, without a journal.
type Options struct {
	Env flows.Env // artifact store; Env.Ck is ignored (the sweep manages its own journals)

	// CheckpointDir holds the sweep's frontier journal and the shared
	// campaign checkpoint. "" disables journaling.
	CheckpointDir string
	Resume        bool

	Control *Control   // optional per-point cancellation
	Remote  RemoteFunc // optional remote execution hook
	OnPoint func(PointEvent)
}

func (o Options) emit(ev PointEvent) {
	if o.OnPoint != nil {
		o.OnPoint(ev)
	}
}

// journal file names inside CheckpointDir.
const (
	frontierJournal = "frontier.journal"
	campaignJournal = "campaigns.ck"
)

// loadJournal reads completed point results from a frontier journal,
// keeping only digests that belong to the current grid — entries from an
// edited spec are recomputed, never misapplied.
func loadJournal(path string, valid map[string]bool) (map[string]PointResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]PointResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	done := map[string]PointResult{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var p PointResult
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("sweep: journal %s line %d: %v", path, line, err)
		}
		if valid[p.Digest] {
			done[p.Digest] = p
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return done, nil
}

// journalWriter appends completed point results to the frontier journal,
// syncing after every line so a kill loses at most the in-flight points.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

func (jw *journalWriter) append(p PointResult) error {
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if _, err := jw.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return jw.f.Sync()
}

// Run evaluates the grid and returns the frontier. The result is
// byte-identical (as NDJSON) for the same spec at any concurrency, after
// any kill/resume cycle, and whether points ran locally or remotely.
// On interruption the error is the context's cause and the journal (if
// any) retains every completed point for -resume.
func Run(ctx context.Context, spec Spec, o Options) (*Frontier, error) {
	spec = spec.withDefaults()
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	conc := max(spec.Concurrency, 1)

	done := map[string]PointResult{}
	var jw *journalWriter
	var ck *fault.Checkpoint
	if o.CheckpointDir != "" {
		if err := os.MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		jpath := filepath.Join(o.CheckpointDir, frontierJournal)
		if o.Resume {
			valid := make(map[string]bool, len(pts))
			for _, p := range pts {
				valid[p.Digest] = true
			}
			if done, err = loadJournal(jpath, valid); err != nil {
				return nil, err
			}
			if ck, err = fault.LoadCheckpoint(filepath.Join(o.CheckpointDir, campaignJournal)); err != nil {
				return nil, err
			}
		} else {
			if _, err := os.Stat(jpath); err == nil {
				return nil, fmt.Errorf("sweep: journal %s already exists; pass resume to continue it or remove the directory", jpath)
			}
			ck = fault.NewCheckpoint(filepath.Join(o.CheckpointDir, campaignJournal))
		}
		// Points bind campaign sections concurrently and in cache-
		// dependent order; content addressing matches them on resume.
		ck.ContentAddressed()
		f, err := os.OpenFile(jpath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		jw = &journalWriter{f: f}
		defer f.Close()
	}

	results := make([]PointResult, len(pts))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for i, pt := range pts {
		if r, ok := done[pt.Digest]; ok {
			r.Index = pt.Index
			results[i] = r
			o.emit(PointEvent{Index: pt.Index, Total: len(pts), Digest: pt.Digest, Phase: "cached",
				Msg: fmt.Sprintf("point %d/%d %s: journaled", pt.Index+1, len(pts), pt.Digest)})
			continue
		}
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int, pt Point) {
				defer wg.Done()
				defer func() { <-sem }()
				r, err := runPoint(ctx, spec, pt, len(pts), o, ck)
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
				if jw != nil && !r.Canceled && r.Error == "" {
					if err := jw.append(r); err != nil {
						fail(err)
					}
				}
			}(i, pt)
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		if ck != nil {
			ck.Flush()
		}
		return nil, context.Cause(ctx)
	}
	if firstErr != nil {
		if ck != nil {
			ck.Flush()
		}
		return nil, firstErr
	}

	f := &Frontier{Points: results}
	f.markPareto()
	if o.CheckpointDir != "" {
		// Complete: the journals have served their purpose. Canceled
		// points are deliberately not journaled, so a later resume of the
		// same directory would rerun them — but a clean completion
		// removes the journals entirely, exactly like the flow CLIs.
		os.Remove(filepath.Join(o.CheckpointDir, frontierJournal))
		os.Remove(filepath.Join(o.CheckpointDir, campaignJournal))
	}
	return f, nil
}

// skeleton fills the identity fields every result carries, whatever its
// outcome.
func skeleton(pt Point) PointResult {
	return PointResult{
		Index:         pt.Index,
		Digest:        pt.Digest,
		Preset:        pt.Preset,
		Overrides:     pt.Overrides,
		NodeNM:        pt.NodeNM,
		StagnateNM:    pt.StagnateNM,
		SelfHealShare: pt.SelfHealShare,
	}
}

// runPoint evaluates one grid cell, honoring per-point cancellation and
// the remote hook. A point-level failure becomes an errored result; only
// sweep-level interruption (ctx done) propagates as an error.
func runPoint(ctx context.Context, spec Spec, pt Point, total int, o Options, ck *fault.Checkpoint) (PointResult, error) {
	pctx := ctx
	if o.Control != nil {
		var disarm func()
		var already bool
		pctx, disarm, already = o.Control.arm(ctx, pt.Digest)
		if already {
			r := skeleton(pt)
			r.Canceled = true
			o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "canceled",
				Msg: fmt.Sprintf("point %d/%d %s: canceled", pt.Index+1, total, pt.Digest)})
			return r, nil
		}
		defer disarm()
	}
	o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "start",
		Msg: fmt.Sprintf("point %d/%d %s: %s node=%d stagnate=%d selfheal=%g", pt.Index+1, total,
			pt.Digest, pt.Preset, pt.NodeNM, pt.StagnateNM, pt.SelfHealShare)})

	if o.Remote != nil {
		r, err := runPointRemote(pctx, spec, pt, o)
		if err == nil {
			o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "remote",
				Msg: fmt.Sprintf("point %d/%d %s: done (remote)", pt.Index+1, total, pt.Digest)})
			return r, nil
		}
		if ctx.Err() != nil {
			return PointResult{}, context.Cause(ctx)
		}
		if errors.Is(context.Cause(pctx), ErrPointCanceled) {
			r := skeleton(pt)
			r.Canceled = true
			o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "canceled",
				Msg: fmt.Sprintf("point %d/%d %s: canceled", pt.Index+1, total, pt.Digest)})
			return r, nil
		}
		o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "fallback",
			Msg: fmt.Sprintf("point %d/%d %s: remote failed (%v), running locally", pt.Index+1, total, pt.Digest, err)})
	}

	r, err := runPointLocal(pctx, spec, pt, o.Env, ck)
	switch {
	case err == nil:
		o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "done",
			Msg: fmt.Sprintf("point %d/%d %s: yield %.2f%% yat %.4f", pt.Index+1, total, pt.Digest,
				r.EmpYield*100, r.EmpYAT)})
		return r, nil
	case errors.Is(context.Cause(pctx), ErrPointCanceled) && ctx.Err() == nil:
		r = skeleton(pt)
		r.Canceled = true
		o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "canceled",
			Msg: fmt.Sprintf("point %d/%d %s: canceled", pt.Index+1, total, pt.Digest)})
		return r, nil
	case ctx.Err() != nil:
		return PointResult{}, context.Cause(ctx)
	case pctx.Err() != nil && context.Cause(pctx) != ErrPointCanceled:
		// The point context expired for a reason other than point cancel
		// (shouldn't happen: only Control cancels pctx) — treat as fatal.
		return PointResult{}, context.Cause(pctx)
	case fault.Interrupted(err):
		// A chaos-armed campaign cancels itself as if the operator hit
		// Ctrl-C — a sweep-level interruption (journal kept for resume),
		// not a defective point.
		return PointResult{}, err
	default:
		r = skeleton(pt)
		r.Error = err.Error()
		o.emit(PointEvent{Index: pt.Index, Total: total, Digest: pt.Digest, Phase: "failed",
			Msg: fmt.Sprintf("point %d/%d %s: %v", pt.Index+1, total, pt.Digest, err)})
		return r, nil
	}
}

// runPointRemote ships the point to the remote hook as a single-point
// spec and verifies the digest of what comes back.
func runPointRemote(ctx context.Context, spec Spec, pt Point, o Options) (PointResult, error) {
	one := SinglePointSpec(spec, pt)
	raw, err := o.Remote(ctx, one, pt)
	if err != nil {
		return PointResult{}, err
	}
	fr, err := ParseNDJSON(bytes.NewReader(raw))
	if err != nil {
		return PointResult{}, err
	}
	if len(fr.Points) != 1 {
		return PointResult{}, fmt.Errorf("sweep: remote returned %d points, want 1", len(fr.Points))
	}
	r := fr.Points[0]
	if r.Digest != pt.Digest {
		return PointResult{}, fmt.Errorf("sweep: remote point digest %s does not match %s — worker ran a different spec", r.Digest, pt.Digest)
	}
	if r.Canceled {
		return PointResult{}, fmt.Errorf("sweep: remote point was canceled on the worker")
	}
	if r.Error != "" {
		return PointResult{}, fmt.Errorf("sweep: remote point failed: %s", r.Error)
	}
	r.Index = pt.Index
	r.Pareto = false // recomputed over the full grid
	return r, nil
}

// runPointLocal evaluates one point against the artifact store: build the
// variant's system, generate tests, build the perf model, run the fab
// fleet, and assemble the result row.
func runPointLocal(ctx context.Context, spec Spec, pt Point, env flows.Env, ck *fault.Checkpoint) (PointResult, error) {
	env.Ck = ck
	v := pt.Variant

	sys, err := env.System(v.Netlist, v.ScanChains, rtl.RescueDesign)
	if err != nil {
		return PointResult{}, fmt.Errorf("build: %w", err)
	}
	if !sys.Audit.OK() {
		return PointResult{}, fmt.Errorf("ICI audit failed: %d violations", len(sys.Audit.Violations))
	}

	gen := atpg.DefaultGenConfig()
	gen.Workers = spec.Workers
	tp, err := env.TestProgram(ctx, sys, gen)
	if err != nil {
		return PointResult{}, err
	}

	var names []string
	if spec.Bench != "" {
		names = strings.Split(spec.Bench, ",")
	}
	base := v.Perf.BaselineParams()
	resc, err := v.Perf.RescueParams()
	if err != nil {
		return PointResult{}, err
	}
	pm, err := env.PerfModel(ctx, pt.NodeNM, base, resc, names, spec.Warmup, spec.Commit, spec.Workers)
	if err != nil {
		return PointResult{}, err
	}

	node, ok := flows.ValidNode(pt.NodeNM)
	if !ok {
		return PointResult{}, fmt.Errorf("sweep: unsupported node %dnm", pt.NodeNM)
	}
	rescArea := v.AreaModel(pt.SelfHealShare)
	baseCM, rescCM := fab.ModelsFromPerf(pm, area.BaselineWithScan(), rescArea)
	eng, err := fab.New(sys, tp, baseCM, rescCM, fab.Config{
		Dies: spec.Dies, Node: node, Stagnate: area.Node(pt.StagnateNM),
		Growth: spec.Growth, Seed: spec.Seed, Workers: spec.Workers,
		SelfHealShare: pt.SelfHealShare,
	})
	if err != nil {
		return PointResult{}, err
	}
	rep, err := eng.Run(ctx, ck)
	if err != nil {
		return PointResult{}, err
	}

	r := skeleton(pt)
	r.Gates = sys.Design.N.NumGates()
	r.ScanCells = tp.Gen.ScanCells
	r.Vectors = tp.Gen.Vectors
	r.TestCycles = tp.Gen.Cycles
	r.Coverage = tp.Gen.Coverage
	r.CoreArea = rep.CoreArea
	r.Cores = rep.Cores
	r.EmpYield = rep.EmpYield
	r.EmpYieldCI = rep.EmpYieldCI
	r.AnaYield = rep.AnaYield
	r.EmpYAT = rep.EmpYAT
	r.EmpYATCI = rep.EmpYATCI
	r.AnaYAT = rep.AnaChip.Rescue
	return r, nil
}
