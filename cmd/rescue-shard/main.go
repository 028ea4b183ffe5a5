// Command rescue-shard runs one flow as a distributed campaign: it splits
// every eligible fault-simulation campaign into content-addressed shards,
// dispatches them to a pool of rescued workers over HTTP, and merges the
// results byte-identically to the single-node run — the report on stdout
// is the same bytes `rescued` or the corresponding CLI would produce.
//
// The point is the failure story, not the speedup: workers are health
// checked and heartbeat monitored; failed or hung shards are retried
// across the pool with exponential backoff under a retry budget; and when
// the pool is exhausted the remaining shards are recomputed locally — the
// run degrades to a single-node campaign instead of failing, finishing
// with exit code 3 so scripts can tell a degraded success from a clean one.
//
// Workers are either external rescued processes (-workers URL,URL,...) or
// children spawned from this binary (-spawn N), each a fully featured
// rescued on a loopback port. With -spawn, chaos mode (-chaos-kill-workers
// K) SIGKILLs K seeded-random workers mid-campaign to prove the machinery:
// the merged output must still match the serial golden.
//
// Usage:
//
//	rescue-shard -kind fab -params '{"small":true,"seed":7}' -spawn 3
//	rescue-shard -kind dict -params '{"small":true}' -workers http://h1:8321,http://h2:8321
//	rescue-shard -worker -addr 127.0.0.1:0     (one pool worker; used by -spawn)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"rescue/internal/cli"
	"rescue/internal/dispatch"
	"rescue/internal/fault"
	"rescue/internal/flows"
	"rescue/internal/serve"
)

func main() {
	var (
		worker = flag.Bool("worker", false, "run as a pool worker (a rescued serving shard jobs) instead of a coordinator")
		addr   = flag.String("addr", "127.0.0.1:0", "worker listen address (port 0 picks a free port)")

		kind       = flag.String("kind", "", "flow to run (a rescued job kind: table3, dict, isolation, yat, fab)")
		params     = flag.String("params", "", "flow parameters as JSON (the kind's job params)")
		workersCSV = flag.String("workers", "", "comma-separated rescued base URLs to dispatch shards to")
		spawn      = flag.Int("spawn", 0, "spawn N local worker children instead of -workers URLs")
		shards     = flag.Int("shards", 0, "shards per eligible campaign (0 = pool size)")
		minFaults  = flag.Int("min-faults", 64, "campaigns smaller than this run locally")
		budget     = flag.Int("retry-budget", 0, "re-dispatch attempts per shard (0 = 2x pool size)")
		heartbeat  = flag.Duration("heartbeat", 30*time.Second, "max event-stream silence before a worker counts as hung")
		jobWorkers = flag.Int("job-workers", 0, "campaign workers inside each shard job and locally (0 = all cores)")
		seed       = flag.Int64("seed", 1, "seed for retry jitter and chaos victim choice")
		tenant     = flag.String("tenant", "", "tenant tag for dispatched shard jobs (X-Rescue-Client on workers)")
		timeout    = flag.Duration("timeout", 0, "overall deadline (0 = none; exit 124 when exceeded)")
		ckPath     = flag.String("checkpoint", "", "campaign checkpoint journal for the local run (empty = off)")
		resume     = flag.Bool("resume", false, "resume from an existing -checkpoint journal")
		quiet      = flag.Bool("quiet", false, "suppress dispatch log lines")

		chaosKill  = flag.Int("chaos-kill-workers", 0, "kill this many spawned workers mid-campaign (requires -spawn)")
		chaosAfter = flag.Int("chaos-after-shards", 1, "completed shards to wait for before the chaos kill")
	)
	flag.Parse()

	if *worker {
		runWorker(*addr, *jobWorkers)
		return
	}
	runCoordinator(coordConfig{
		kind: *kind, params: *params, workersCSV: *workersCSV, spawn: *spawn,
		shards: *shards, minFaults: *minFaults, budget: *budget,
		heartbeat: *heartbeat, jobWorkers: *jobWorkers, seed: *seed,
		timeout: *timeout, ckPath: *ckPath, resume: *resume, quiet: *quiet,
		chaosKill: *chaosKill, chaosAfter: *chaosAfter, tenant: *tenant,
	})
}

// runWorker is the -worker mode: a rescued pinned to the built-in kinds,
// draining gracefully on SIGINT/SIGTERM. The resolved address on stdout is
// the contract the coordinator's -spawn mode parses.
func runWorker(addr string, jobWorkers int) {
	cli.CheckWorkers(jobWorkers)
	srv := serve.New(serve.Config{
		Workers: jobWorkers,
		Logf:    log.New(os.Stderr, "worker: ", log.LstdFlags).Printf,
	})
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := srv.Serve(ctx, addr, 2*time.Minute); err != nil {
		cli.Fatalf("%v", err)
	}
}

type coordConfig struct {
	kind, params, workersCSV string
	spawn, shards, minFaults int
	budget                   int
	heartbeat                time.Duration
	jobWorkers               int
	seed                     int64
	timeout                  time.Duration
	ckPath                   string
	resume                   bool
	quiet                    bool
	chaosKill, chaosAfter    int
	tenant                   string
}

func runCoordinator(cfg coordConfig) {
	kinds := serve.Kinds()
	runner, ok := kinds[cfg.kind]
	if cfg.kind == "" || cfg.kind == "shard" || !ok {
		cli.Usagef("-kind must be one of %s, got %q", kindNames(kinds), cfg.kind)
	}
	if cfg.params != "" && !json.Valid([]byte(cfg.params)) {
		cli.Usagef("-params is not valid JSON: %s", cfg.params)
	}
	if _, err := serve.TenantName(cfg.tenant); err != nil {
		cli.Usagef("-tenant: %v", err)
	}
	if (cfg.workersCSV == "") == (cfg.spawn == 0) {
		cli.Usagef("need exactly one of -workers or -spawn")
	}
	if cfg.spawn < 0 {
		cli.Usagef("-spawn must be >= 0, got %d", cfg.spawn)
	}
	if cfg.chaosKill > 0 && cfg.spawn == 0 {
		cli.Usagef("-chaos-kill-workers requires -spawn (can only kill workers this process owns)")
	}
	if cfg.chaosKill > cfg.spawn {
		cli.Usagef("-chaos-kill-workers %d exceeds -spawn %d", cfg.chaosKill, cfg.spawn)
	}
	cli.CheckWorkers(cfg.jobWorkers)
	cli.CheckTimeout(cfg.timeout)
	ck := cli.OpenCheckpoint(cfg.ckPath, cfg.resume)

	logf := log.New(os.Stderr, "dispatch: ", log.LstdFlags).Printf
	if cfg.quiet {
		logf = nil
	}

	// Assemble the pool: external URLs, or spawned children.
	var urls []string
	var children []*exec.Cmd
	if cfg.spawn > 0 {
		var err error
		urls, children, err = spawnWorkers(cfg.spawn, cfg.jobWorkers)
		if err != nil {
			killAll(children)
			cli.Fatalf("spawn workers: %v", err)
		}
		defer killAll(children)
	} else {
		for _, u := range strings.Split(cfg.workersCSV, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			cli.Usagef("-workers lists no URLs")
		}
	}

	pool, err := dispatch.NewPool(dispatch.Config{
		Workers:     urls,
		Shards:      cfg.shards,
		MinFaults:   cfg.minFaults,
		RetryBudget: cfg.budget,
		Heartbeat:   cfg.heartbeat,
		Seed:        cfg.seed,
		Tenant:      cfg.tenant,
		Logf:        logf,
		Chaos: dispatch.ChaosConfig{
			KillWorkers: cfg.chaosKill,
			AfterShards: cfg.chaosAfter,
			Kill: func(i int) error {
				return children[i].Process.Kill()
			},
		},
	})
	if err != nil {
		cli.Fatalf("%v", err)
	}
	defer pool.Close()
	plan, err := pool.Plan(serve.Spec{Kind: cfg.kind, Params: json.RawMessage(cfg.params)})
	if err != nil {
		cli.Fatalf("%v", err)
	}

	ctx, cancel := cli.FlowContext(cfg.timeout)
	defer cancel()
	ctx = fault.WithShardPlan(ctx, plan)

	rc := serve.RunContext{
		Env:     flows.Env{Store: flows.NewStore(), Ck: ck},
		Workers: cfg.jobWorkers,
	}
	out, err := runner(ctx, rc, json.RawMessage(cfg.params))
	os.Stdout.Write(out)
	if err != nil {
		cli.ExitErr(err)
	}

	st := pool.Stats()
	fmt.Fprintf(os.Stderr,
		"dispatch: %d shards completed remotely, %d retries, %d local fallbacks, %d workers killed\n",
		st.Completed, st.Retries, st.Fallbacks, st.Killed)
	if st.Fallbacks > 0 {
		fmt.Fprintf(os.Stderr,
			"degraded: %d shard(s) recomputed locally after the worker pool was exhausted; output is complete and verified\n",
			st.Fallbacks)
		os.Exit(cli.ExitDegraded)
	}
}

func kindNames(kinds map[string]serve.Runner) string {
	var names []string
	for k := range kinds {
		if k != "shard" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// spawnWorkers launches n children of this binary in -worker mode on free
// loopback ports and returns their base URLs once each prints its
// listening address.
func spawnWorkers(n, jobWorkers int) ([]string, []*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var urls []string
	var children []*exec.Cmd
	for i := 0; i < n; i++ {
		c := exec.Command(self, "-worker", "-addr", "127.0.0.1:0",
			"-job-workers", fmt.Sprint(jobWorkers))
		c.Stderr = os.Stderr
		stdout, err := c.StdoutPipe()
		if err != nil {
			return urls, children, err
		}
		if err := c.Start(); err != nil {
			return urls, children, err
		}
		children = append(children, c)
		addr, err := readListenAddr(stdout)
		if err != nil {
			return urls, children, fmt.Errorf("worker %d: %w", i, err)
		}
		go io.Copy(io.Discard, stdout) // keep the pipe drained
		urls = append(urls, "http://"+addr)
	}
	return urls, children, nil
}

func readListenAddr(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			return addr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("exited before printing its listen address")
}

// killAll SIGKILLs every spawned worker and reaps it. By the time this
// runs the results are merged (or the run failed); there is nothing worth
// draining.
func killAll(children []*exec.Cmd) {
	for _, c := range children {
		if c != nil && c.Process != nil {
			c.Process.Kill()
		}
	}
	for _, c := range children {
		if c != nil && c.Process != nil {
			c.Wait()
		}
	}
}
