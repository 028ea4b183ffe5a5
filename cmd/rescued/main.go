// Command rescued serves the repo's flows as HTTP batch jobs: ATPG
// (Table 3), fault-dictionary builds, isolation campaigns, YAT studies,
// and Monte Carlo fab fleets, over a bounded queue with live NDJSON event
// streams, per-job cancellation, /metrics, and /debug/pprof.
//
// Jobs render through the same internal/flows runners the CLIs use,
// against a shared content-addressed artifact cache — a repeated
// submission reuses the built netlists, test sets, and IPC tables, and its
// report is byte-identical to the cold run and to the CLI's output.
//
// SIGINT/SIGTERM drain gracefully: running campaigns finish in-flight
// chunks and flush their checkpoint journals (with -checkpoint-dir), so
// resubmitting the same job to the next rescued resumes where it left off;
// the process then exits 0.
//
// Admission is multi-tenant: clients identify via the X-Rescue-Client
// header (or spec "tenant" field) and are scheduled by deficit-weighted
// round-robin with per-tenant queue caps, in-flight limits, priority
// classes, and deadline-aware shedding, so one greedy client degrades
// its own service instead of everyone's. -fair=false reverts to the
// legacy single FIFO for A/B measurement.
//
// Usage:
//
//	rescued [-addr host:port] [-queue N] [-slots N] [-workers N]
//	        [-checkpoint-dir dir] [-drain-timeout D] [-quiet]
//	        [-fair=bool] [-tenant-weights a=3,b=1] [-tenant-queue-cap N]
//	        [-max-inflight-per-tenant N] [-event-log-cap N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"rescue/internal/cli"
	"rescue/internal/serve"
)

// parseTenantWeights parses "a=3,b=1" into a weight map; every weight
// must be a positive integer and every name a valid tenant.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", part)
		}
		if _, err := serve.TenantName(name); err != nil {
			return nil, fmt.Errorf("bad tenant name %q in weights", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %s (want integer >= 1)", val, name)
		}
		out[name] = w
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
	queueCap := flag.Int("queue", 64, "queued-job capacity; submissions beyond it get 429")
	slots := flag.Int("slots", 1, "jobs running concurrently (flows parallelize internally)")
	workers := flag.Int("workers", 0, "default campaign workers per job (0 = all cores)")
	ckDir := flag.String("checkpoint-dir", "", "directory for per-job campaign checkpoint journals (empty = off)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to wait for running jobs on shutdown")
	quiet := flag.Bool("quiet", false, "suppress per-job log lines")
	fair := flag.Bool("fair", true, "multi-tenant fair scheduling; false reverts to one global FIFO")
	weightsFlag := flag.String("tenant-weights", "", "per-tenant DRR weights, e.g. victim=3,batch=1 (unlisted tenants weigh 1)")
	tenantQueueCap := flag.Int("tenant-queue-cap", 0, "max queued jobs per tenant (0 = the global -queue cap)")
	maxInflight := flag.Int("max-inflight-per-tenant", 0, "max running jobs per tenant (0 = no per-tenant limit)")
	eventLogCap := flag.Int("event-log-cap", 0, "max retained events per job; lagging stream consumers get dropped markers (0 = 4096, min 16)")
	flag.Parse()
	cli.CheckWorkers(*workers)
	if *queueCap < 1 {
		cli.Usagef("-queue must be >= 1, got %d", *queueCap)
	}
	if *slots < 1 {
		cli.Usagef("-slots must be >= 1, got %d", *slots)
	}
	if *drainTimeout <= 0 {
		cli.Usagef("-drain-timeout must be > 0, got %v", *drainTimeout)
	}
	weights, err := parseTenantWeights(*weightsFlag)
	if err != nil {
		cli.Usagef("-tenant-weights: %v", err)
	}
	if *tenantQueueCap < 0 {
		cli.Usagef("-tenant-queue-cap must be >= 0, got %d", *tenantQueueCap)
	}
	if *maxInflight < 0 {
		cli.Usagef("-max-inflight-per-tenant must be >= 0, got %d", *maxInflight)
	}
	if *eventLogCap != 0 && *eventLogCap < 16 {
		cli.Usagef("-event-log-cap must be 0 or >= 16, got %d", *eventLogCap)
	}
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			cli.Fatalf("checkpoint-dir: %v", err)
		}
	}

	logf := log.New(os.Stderr, "rescued: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	srv := serve.New(serve.Config{
		QueueCap:             *queueCap,
		Slots:                *slots,
		Workers:              *workers,
		CheckpointDir:        *ckDir,
		Logf:                 logf,
		TenantWeights:        weights,
		TenantQueueCap:       *tenantQueueCap,
		MaxInflightPerTenant: *maxInflight,
		DisableFairness:      !*fair,
		EventLogCap:          *eventLogCap,
	})

	// Drain on SIGINT/SIGTERM: stop accepting, cancel running jobs (their
	// campaigns flush checkpoint journals), then close the listener and
	// exit 0. The resolved address on stdout is the contract scripts use
	// with -addr 127.0.0.1:0 to avoid port races.
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := srv.Serve(ctx, *addr, *drainTimeout); err != nil {
		cli.Fatalf("%v", err)
	}
}
