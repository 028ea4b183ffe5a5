// Command rescue-loadgen fires a seeded, ServeGen-style synthetic
// workload at a live rescued daemon and grades the result against
// latency/error SLOs.
//
// The generator compiles a deterministic request schedule from a client
// population — Zipf-skewed per-client rates, per-client job-kind mixes
// over the serving kinds, Poisson arrivals with optional bursts, and a
// configurable cache-hit ratio (warm requests reuse canonical flow seeds,
// cold ones perturb them) — then replays it open-loop over real HTTP:
// submit, back off on 429 by the server's Retry-After, stream the job's
// event feed to completion. Same -seed = same schedule, byte for byte,
// so runs are comparable across commits.
//
// The run's per-kind latency percentiles, throughput, cache-hit
// economics, queue-depth/slot-occupancy samples, and error counts land in
// a machine-readable report (-out, default BENCH_loadtest.json) plus a
// human summary on stdout. Declared SLOs are enforced: a warm-path p99
// above -slo-p99-warm or an error rate above -slo-error-rate exits 1 —
// the CI regression gate.
//
// Multi-tenant runs: -tenant/-class tag every request (headers, not
// bodies — artifact identities are untouched); -slow-readers N turns the
// first N requests into late-replaying consumers that count the server's
// bounded-buffer drop markers; -scenario noisy-neighbor replaces the
// plain run with the canned fairness experiment — a warm victim tenant
// measured solo, then under an aggressor flood against the fair daemon
// at -base, and optionally against a -fair=false daemon at -base-unfair,
// which must demonstrably violate the fairness budget. A fairness
// violation exits 1 like an SLO violation.
//
// Usage:
//
//	rescue-loadgen -base http://127.0.0.1:8321 [-seed N] [-clients N]
//	    [-duration D] [-rps R] [-skew S] [-hit-ratio H]
//	    [-burst-frac F] [-burst-len L] [-mix kind=w,kind=w,...]
//	    [-tenant name] [-class interactive|batch] [-slow-readers N]
//	    [-prewarm] [-out file] [-slo-p99-warm D] [-slo-error-rate R]
//	    [-max-retries N] [-retry-cap D] [-timeout D] [-dry-run]
//	rescue-loadgen -scenario noisy-neighbor -base URL [-base-unfair URL]
//	    [-victim-rps R] [-aggressor-mult M] [-fairness-bound B]
//	    [-fairness-floor D] [-duration D] [-seed N] [-out file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rescue/internal/cli"
	"rescue/internal/loadgen"
)

func main() {
	base := flag.String("base", "", "rescued base URL, e.g. http://127.0.0.1:8321 (required unless -dry-run)")
	seed := flag.Int64("seed", 1, "workload seed; same seed = identical request schedule")
	clients := flag.Int("clients", 8, "client population size")
	duration := flag.Duration("duration", 10*time.Second, "schedule horizon")
	rps := flag.Float64("rps", 10, "aggregate arrival rate, requests/second")
	skew := flag.Float64("skew", 1.0, "Zipf exponent over client rates (0 = uniform)")
	hitRatio := flag.Float64("hit-ratio", 0.9, "probability a request reuses its kind's canonical seed")
	burstFrac := flag.Float64("burst-frac", 0.25, "fraction of clients with bursty arrivals")
	burstLen := flag.Float64("burst-len", 3, "mean extra requests per burst epoch")
	mix := flag.String("mix", "", "kind weights, e.g. table3=3,isolation=3,fab=2 (default: the built-in small mix)")
	prewarm := flag.Bool("prewarm", true, "prime each kind's canonical artifacts before the clock starts")
	out := flag.String("out", "BENCH_loadtest.json", "machine-readable report path (empty = don't write)")
	sloP99Warm := flag.Duration("slo-p99-warm", 0, "fail (exit 1) if the warm-path p99 exceeds this (0 = off)")
	sloErrRate := flag.Float64("slo-error-rate", -1, "fail (exit 1) if the error rate exceeds this fraction (negative = off)")
	maxRetries := flag.Int("max-retries", 8, "429 resubmissions per request before it counts as rejected")
	retryCap := flag.Duration("retry-cap", 5*time.Second, "cap on honored Retry-After waits")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall run deadline")
	dryRun := flag.Bool("dry-run", false, "print the compiled schedule as NDJSON (plus its digest) and exit")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	tenant := flag.String("tenant", "", "tenant identity for every request (X-Rescue-Client; empty = untagged)")
	class := flag.String("class", "", "priority class for every request: interactive or batch (empty = server default)")
	slowReaders := flag.Int("slow-readers", 0, "first N requests replay their event stream only after the job finishes, counting drop markers")
	slowReadDelay := flag.Duration("slow-read-delay", 0, "slow readers' poll interval (0 = 50ms)")
	scenario := flag.String("scenario", "", "canned scenario instead of a plain run: noisy-neighbor")
	baseUnfair := flag.String("base-unfair", "", "noisy-neighbor: base URL of a -fair=false daemon for the control leg")
	victimRPS := flag.Float64("victim-rps", 0, "noisy-neighbor: victim arrival rate (0 = 2)")
	aggressorMult := flag.Float64("aggressor-mult", 0, "noisy-neighbor: aggressor rate as a multiple of the victim's (0 = 15)")
	fairnessBound := flag.Float64("fairness-bound", 0, "noisy-neighbor: allowed victim warm-p99 degradation multiple over solo (0 = 3)")
	fairnessFloor := flag.Duration("fairness-floor", 0, "noisy-neighbor: absolute lower bound on the fair budget (0 = 250ms)")
	flag.Parse()
	cli.CheckTimeout(*timeout)

	if *class != "" && *class != "interactive" && *class != "batch" {
		cli.Usagef("-class must be interactive or batch, got %q", *class)
	}
	if *slowReaders < 0 {
		cli.Usagef("-slow-readers must be >= 0, got %d", *slowReaders)
	}
	if *scenario != "" && *scenario != "noisy-neighbor" {
		cli.Usagef("unknown -scenario %q (have: noisy-neighbor)", *scenario)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	opts := loadgen.Options{
		BaseURL:       *base,
		Prewarm:       *prewarm,
		MaxRetries:    *maxRetries,
		RetryCap:      *retryCap,
		SlowReaders:   *slowReaders,
		SlowReadDelay: *slowReadDelay,
		Logf:          logf,
	}

	if *scenario == "noisy-neighbor" {
		if *base == "" {
			cli.Usagef("-base is required for -scenario noisy-neighbor")
		}
		ctx, cancel := cli.FlowContext(*timeout)
		defer cancel()
		report, err := loadgen.RunNoisyNeighbor(ctx, loadgen.NoisyNeighborConfig{
			Seed:          *seed,
			Duration:      *duration,
			VictimRPS:     *victimRPS,
			AggressorMult: *aggressorMult,
			Bound:         *fairnessBound,
			FloorMS:       float64(*fairnessFloor) / float64(time.Millisecond),
		}, opts, *baseUnfair)
		if err != nil {
			cli.ExitErr(err)
		}
		writeReport(report, *out)
		// The summary already lists each FAIRNESS VIOLATION line.
		report.WriteSummary(os.Stdout)
		if len(report.Fairness.Violations) > 0 {
			os.Exit(cli.ExitRuntime)
		}
		return
	}

	profiles, err := mixProfiles(*mix)
	if err != nil {
		cli.Usagef("%v", err)
	}
	cfg := loadgen.Config{
		Seed:      *seed,
		Clients:   *clients,
		Duration:  *duration,
		RPS:       *rps,
		Skew:      *skew,
		HitRatio:  *hitRatio,
		BurstFrac: *burstFrac,
		BurstLen:  *burstLen,
		Profiles:  profiles,
		Tenant:    *tenant,
		Class:     *class,
	}
	sch, err := loadgen.Build(cfg)
	if err != nil {
		cli.Usagef("%v", err)
	}

	if *dryRun {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range sch.Requests {
			if err := enc.Encode(r); err != nil {
				cli.Fatalf("%v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "schedule: %d requests, %d clients, digest %s\n",
			len(sch.Requests), len(sch.Clients), sch.Digest())
		return
	}
	if *base == "" {
		cli.Usagef("-base is required (or use -dry-run)")
	}

	ctx, cancel := cli.FlowContext(*timeout)
	defer cancel()
	stats, err := loadgen.Run(ctx, sch, opts)
	if err != nil {
		cli.ExitErr(err)
	}

	report := loadgen.BuildReport(cfg, sch, stats)
	violations := report.CheckSLOs(*sloP99Warm, *sloErrRate)
	writeReport(report, *out)
	report.WriteSummary(os.Stdout)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "SLO VIOLATION: %s\n", v)
		}
		os.Exit(cli.ExitRuntime)
	}
}

// writeReport lands the machine-readable report at path ("" = skip).
func writeReport(report *loadgen.Report, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	if err := report.WriteJSON(f); err != nil {
		cli.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		cli.Fatalf("close %s: %v", path, err)
	}
}

// mixProfiles applies a "kind=weight,..." override to the built-in small
// mix: listed kinds get the given weight, unlisted ones drop out. An
// empty spec keeps the full default mix.
func mixProfiles(spec string) ([]loadgen.Profile, error) {
	all := loadgen.SmallMix()
	if spec == "" {
		return all, nil
	}
	byKind := map[string]loadgen.Profile{}
	for _, p := range all {
		byKind[p.Kind] = p
	}
	var out []loadgen.Profile
	for _, part := range strings.Split(spec, ",") {
		kind, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q, want kind=weight", part)
		}
		p, known := byKind[kind]
		if !known {
			return nil, fmt.Errorf("unknown kind %q in -mix", kind)
		}
		weight, err := strconv.ParseFloat(w, 64)
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("bad weight %q for kind %s", w, kind)
		}
		if weight == 0 {
			continue
		}
		p.Weight = weight
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mix %q selects no kinds", spec)
	}
	return out, nil
}
