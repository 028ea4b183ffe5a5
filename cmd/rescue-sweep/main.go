// Command rescue-sweep maps the yield/YAT design space: it expands a grid
// of Rescue variants (named presets crossed with parameter-override axes)
// against fab-level axes (technology node, defect-density stagnation node,
// self-heal spare share), evaluates every point through the shared
// artifact store — netlist, ATPG, and IPC-model work is built once per
// distinct variant, not once per point — and reports the frontier with the
// Pareto set marked.
//
// The frontier is deterministic: the same spec produces byte-identical
// NDJSON at any -concurrency, after any kill/-resume cycle (the
// -checkpoint directory journals completed points and campaign chunks),
// and whether points ran locally or were fanned out to rescued workers
// with -dispatch. Remote results are digest-verified; a worker failure
// falls back to local execution and the run exits 3 (degraded) so scripts
// can tell.
//
// Usage:
//
//	rescue-sweep -small -preset paper,deep-pipe -axis chipkill-scale=1,0.8 \
//	             -node 18,32 -dies 2000 -concurrency 4 -ndjson frontier.ndjson
//	rescue-sweep -small -checkpoint sweep.ck -resume
//	rescue-sweep -small -dispatch http://h1:8321,http://h2:8321
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"rescue/internal/cli"
	"rescue/internal/dispatch"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/serve"
	"rescue/internal/sweep"
)

// axisFlags collects repeated -axis key=v1,v2,... flags into a spec axes
// map.
type axisFlags map[string][]string

func (a axisFlags) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, k+"="+strings.Join(a[k], ","))
	}
	return strings.Join(parts, " ")
}

func (a axisFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" || v == "" {
		return fmt.Errorf("want key=v1,v2,... (keys: %s)", strings.Join(sweep.AxisKeys(), ", "))
	}
	a[k] = append(a[k], strings.Split(v, ",")...)
	return nil
}

func parseInts(flagName, csv string) []int {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			cli.Usagef("-%s value %q is not an integer", flagName, s)
		}
		out = append(out, n)
	}
	return out
}

func parseFloats(flagName, csv string) []float64 {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			cli.Usagef("-%s value %q is not a number", flagName, s)
		}
		out = append(out, f)
	}
	return out
}

func main() {
	axes := axisFlags{}
	var (
		presets     = flag.String("preset", "paper", "comma-separated variant presets ("+strings.Join(sweep.Presets(), ", ")+")")
		nodes       = flag.String("node", "18", "comma-separated technology nodes in nm (90, 65, 32, 18)")
		stagnates   = flag.String("stagnate", "90", "comma-separated PWP stagnation nodes in nm")
		selfheal    = flag.String("selfheal", "0", "comma-separated self-heal spare shares in [0,0.9]")
		small       = flag.Bool("small", false, "use the reduced configuration (2-way) for every preset")
		dies        = flag.Int("dies", 0, "dies per point's Monte Carlo fleet (0 = 2000)")
		seed        = flag.Int64("seed", 0, "fleet sampling seed (0 = 2026)")
		growth      = flag.Float64("growth", 0, "core growth rate per technology halving (0 = 0.30)")
		benches     = flag.String("bench", "", "comma-separated benchmarks for the IPC model (empty = gzip)")
		warmup      = flag.Int64("warmup", 0, "warmup instructions per IPC simulation (0 = 2000)")
		commit      = flag.Int64("commit", 0, "measured instructions per IPC simulation (0 = 10000)")
		concurrency = flag.Int("concurrency", 1, "grid points evaluated at once")
		ndjsonPath  = flag.String("ndjson", "", "write the frontier as NDJSON to this file (\"-\" = stdout instead of the table)")
		ckDir       = flag.String("checkpoint", "", "sweep journal directory (enables kill-and-resume)")
		resume      = flag.Bool("resume", false, "resume a previous sweep from the -checkpoint directory")
		chaosAfter  = flag.Int64("chaos-cancel-after", 0, "cancel after N campaign fault-sims (chaos testing; 0 = off)")
		workersCSV  = flag.String("dispatch", "", "comma-separated rescued base URLs to fan points out to")
		quiet       = flag.Bool("quiet", false, "suppress per-point progress lines on stderr")
	)
	flag.Var(axes, "axis", "override axis as key=v1,v2,... (repeatable; keys: "+strings.Join(sweep.AxisKeys(), ", ")+")")
	ff := cli.AddStudyFlags(flag.CommandLine)
	flag.Parse()
	ff.Validate()
	cli.ArmChaos(*chaosAfter)
	if *concurrency < 0 {
		cli.Usagef("-concurrency must be >= 0 (0 = 1), got %d", *concurrency)
	}
	if *resume && *ckDir == "" {
		cli.Usagef("-resume requires -checkpoint <dir>")
	}

	spec := sweep.Spec{
		Presets:     strings.Split(*presets, ","),
		Axes:        axes,
		Nodes:       parseInts("node", *nodes),
		Stagnates:   parseInts("stagnate", *stagnates),
		SelfHeal:    parseFloats("selfheal", *selfheal),
		Small:       *small,
		Dies:        *dies,
		Seed:        *seed,
		Growth:      *growth,
		Bench:       *benches,
		Warmup:      *warmup,
		Commit:      *commit,
		Concurrency: *concurrency,
		Workers:     ff.Workers,
	}
	if len(axes) == 0 {
		spec.Axes = nil
	}
	// Expand up front so a bad grid is a usage error before any work.
	pts, err := spec.Expand()
	if err != nil {
		cli.Usagef("%v", err)
	}

	var fallbacks atomic.Int64
	o := sweep.Options{
		Env:           flows.Env{Store: flows.NewStore()},
		CheckpointDir: *ckDir,
		Resume:        *resume,
		OnPoint: func(ev sweep.PointEvent) {
			if ev.Phase == "fallback" {
				fallbacks.Add(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "sweep: %s\n", ev.Msg)
			}
		},
	}

	var pool *dispatch.Pool
	if *workersCSV != "" {
		var urls []string
		for _, u := range strings.Split(*workersCSV, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			cli.Usagef("-dispatch lists no URLs")
		}
		logf := log.New(os.Stderr, "dispatch: ", log.LstdFlags).Printf
		if *quiet {
			logf = nil
		}
		pool, err = dispatch.NewPool(dispatch.Config{Workers: urls, Logf: logf})
		if err != nil {
			cli.Fatalf("%v", err)
		}
		defer pool.Close()
		o.Remote = func(ctx context.Context, one sweep.Spec, _ sweep.Point) ([]byte, error) {
			body, err := json.Marshal(one)
			if err != nil {
				return nil, err
			}
			return pool.ExecJob(ctx, serve.Spec{Kind: "sweep", Params: body}, nil)
		}
	}

	ctx, stop := ff.Context()
	defer stop()

	fmt.Fprintf(os.Stderr, "sweep: %d grid points\n", len(pts))
	fr, err := sweep.Run(ctx, spec, o)
	if err != nil {
		if *ckDir != "" && fault.Interrupted(err) {
			fmt.Fprintf(os.Stderr, "sweep journal: %s — rerun with -resume to continue\n", *ckDir)
		}
		cli.ExitErr(err)
	}

	switch *ndjsonPath {
	case "":
		fr.WriteTable(os.Stdout)
	case "-":
		if err := fr.WriteNDJSON(os.Stdout); err != nil {
			cli.Fatalf("write ndjson: %v", err)
		}
	default:
		f, err := os.Create(*ndjsonPath)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		if err := fr.WriteNDJSON(f); err != nil {
			cli.Fatalf("write %s: %v", *ndjsonPath, err)
		}
		if err := f.Close(); err != nil {
			cli.Fatalf("close %s: %v", *ndjsonPath, err)
		}
		fr.WriteTable(os.Stdout)
	}

	if pool != nil {
		st := pool.Stats()
		fmt.Fprintf(os.Stderr, "dispatch: %d points completed remotely, %d retries, %d local fallbacks\n",
			st.Completed, st.Retries, fallbacks.Load())
		if fallbacks.Load() > 0 {
			fmt.Fprintf(os.Stderr,
				"degraded: %d point(s) ran locally after remote dispatch failed; the frontier is complete and digest-verified\n",
				fallbacks.Load())
			os.Exit(cli.ExitDegraded)
		}
	}
}
