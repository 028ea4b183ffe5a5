package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rescue/internal/loadgen"
)

// The serve-warm-mix load: closed-loop clients, each waiting for its
// job's result before taking the next request, as rescued's callers (the
// CLIs, rescue-shard, loadgen users) do. The bench never holds more than
// nproc clients or connections.
const (
	mixClients  = 2
	mixHitRatio = 0.9
	// mixPopulation is the loadgen population size. mixOrder fixes the
	// kind mix; the population only shapes which requests are drawn.
	mixPopulation = 1024
	// The schedule holds about mixRPS x mixDuration requests. The window
	// must end before the schedule does; this is far above what one
	// window completes.
	mixRPS      = 50
	mixDuration = 1000 * time.Second
)

// mixSchedule builds the loadgen schedule of a serve-warm-mix run and
// the order its clients replay it in.
func mixSchedule(seed int64) (*loadgen.Schedule, []loadgen.Request, error) {
	profiles := loadgen.SmallMix()
	sch, err := loadgen.Build(loadgen.Config{
		Seed:     seed,
		Clients:  mixPopulation,
		Duration: mixDuration,
		RPS:      mixRPS,
		HitRatio: mixHitRatio,
		Profiles: profiles,
	})
	if err != nil {
		return nil, nil, err
	}
	order, err := mixOrder(sch, profiles, seed)
	return sch, order, err
}

// mixOrder re-sequences a schedule into cycles that each hold every kind
// as many times as its profile weight, shuffled per cycle by seed. Each
// kind's requests keep their schedule order, so which requests are warm
// and which perturbed seeds the cold ones carry stay loadgen's draws.
// Arrival times are ignored: the clients replay the order closed-loop.
//
// Drawing a kind per request instead lets the jobs of one window hold
// 97 yat requests at one seed and 148 at another; a warm yat job holds
// the slot over six times as long as any other kind, so the window's
// cost would follow the seed rather than the code.
func mixOrder(sch *loadgen.Schedule, profiles []loadgen.Profile, seed int64) ([]loadgen.Request, error) {
	byKind := map[string][]loadgen.Request{}
	for _, r := range sch.Requests {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	var cycle []string
	for _, p := range profiles {
		n := int(p.Weight)
		if n < 1 || float64(n) != p.Weight {
			return nil, fmt.Errorf("profile %s: weight %g is not a positive whole number", p.Kind, p.Weight)
		}
		for i := 0; i < n; i++ {
			cycle = append(cycle, p.Kind)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	next := map[string]int{}
	var out []loadgen.Request
	for {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, k := range cycle {
			if next[k] == len(byKind[k]) {
				return out, nil
			}
			out = append(out, byKind[k][next[k]])
			next[k]++
		}
	}
}

// orderDigest fingerprints a replay order: every request body and its
// warm flag, in order.
func orderDigest(reqs []loadgen.Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%t %s\n", r.Warm, r.Body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

type mixJob struct {
	req loadgen.Request
	run *jobRun
}

// runMix starts a daemon, prewarms every canonical spec (the set-up),
// then replays the schedule with closed-loop clients for window. Every
// warm job's report must equal its prewarmed twin's, byte for byte.
func runMix(ctx context.Context, seed int64, window time.Duration, traced bool) (*outcome, error) {
	o := newOutcome()
	sch, order, err := mixSchedule(seed)
	if err != nil {
		return nil, err
	}
	o.note("schedule_digest %s; order_digest %s (%d requests)", sch.Digest(), orderDigest(order), len(order))
	clients := min(mixClients, runtime.NumCPU())
	hc := newClient(clients)

	t0 := time.Now()
	d, err := startDaemon(ctx, hc)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	kinds := make([]string, 0, len(sch.Canonical))
	for k := range sch.Canonical {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	twins := map[string][sha256.Size]byte{}
	for _, kind := range kinds {
		j, err := runJob(ctx, hc, d.base, sch.Canonical[kind])
		if err != nil {
			return nil, fmt.Errorf("prewarm %s: %w", kind, err)
		}
		o.attempted++
		if j.state != "succeeded" {
			o.fail("prewarm %s ended %s", kind, j.state)
			continue
		}
		twins[kind] = sha256.Sum256(j.out)
		if kind == "table3" {
			golden, err := os.ReadFile(table3Golden)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(j.out, golden) {
				o.fail("prewarm table3 report differs from %s", table3Golden)
			}
		}
	}
	setup := time.Since(t0)
	setupRSS, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.note("peak RSS after prewarm %.0f MiB", setupRSS)

	m0, err := scrape(ctx, hc, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(window)
	var next atomic.Int64
	done := make([][]mixJob, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					errs[c] = fmt.Errorf("the %d scheduled requests ran out before the window ended", len(order))
					return
				}
				req := order[i]
				j, err := runJob(ctx, hc, d.base, req.Body)
				if err != nil {
					errs[c] = err
					return
				}
				done[c] = append(done[c], mixJob{req, j})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m1, err := scrape(ctx, hc, d.base)
	if err != nil {
		return nil, err
	}

	var jobs []mixJob
	for _, js := range done {
		jobs = append(jobs, js...)
	}
	var lat, missLat []float64
	for _, mj := range jobs {
		o.attempted++
		j := mj.run
		lat = append(lat, j.latency())
		if !mj.req.Warm {
			missLat = append(missLat, j.latency())
		}
		switch {
		case j.state != "succeeded":
			o.fail("%s job ended %s", mj.req.Kind, j.state)
		case mj.req.Warm && sha256.Sum256(j.out) != twins[mj.req.Kind]:
			o.fail("warm %s report differs from its prewarmed twin", mj.req.Kind)
		case len(j.out) == 0:
			o.fail("%s job returned an empty report", mj.req.Kind)
		}
	}
	// SmallMix's cold requests perturb only campaign seeds (isolation
	// sampling, fab and sweep fleets), so every artifact they read was
	// prewarmed: the planned artifact hit ratio in the window is 1.
	hits := m1["artifact_cache_hits_total"] - m0["artifact_cache_hits_total"]
	misses := m1["artifact_cache_misses_total"] - m0["artifact_cache_misses_total"]
	if misses != 0 {
		o.fail("artifact store missed %.0f times in the window; planned hit ratio is 1", misses)
	}

	if !traced {
		o.set("setup_s", setup.Seconds(), 1)
		o.set("job_p50_s", percentile(lat, 50), len(lat))
		o.set("job_p90_s", percentile(lat, 90), len(lat))
		o.set("job_p99_s", percentile(lat, 99), len(lat))
		o.set("miss_job_p50_s", percentile(missLat, 50), len(missLat))
		o.set("throughput_jobs_per_s", float64(len(lat))/wall.Seconds(), len(lat))
		o.set("peak_rss_mb", rss, 1)
		o.latencyNote(lat)
		return o, nil
	}

	n := len(jobs)
	var submit, wait, deliver, busy []float64
	runs := map[string][]float64{}
	for _, mj := range jobs {
		j := mj.run
		submit = append(submit, j.submitted.Sub(j.t0).Seconds())
		wait = append(wait, j.startedAt.Sub(j.queuedAt).Seconds())
		deliver = append(deliver, j.end.Sub(j.finishedAt).Seconds())
		run := j.finishedAt.Sub(j.startedAt).Seconds()
		busy = append(busy, run)
		runs[mj.req.Kind] = append(runs[mj.req.Kind], run)
		if !mj.req.Warm {
			runs["miss"] = append(runs["miss"], run)
		}
		o.trees = append(o.trees, mixTree(mj))
	}
	o.set("serve.submit_p50_s", percentile(submit, 50), n)
	o.set("serve.queue_wait_p50_s", percentile(wait, 50), n)
	o.set("serve.queue_wait_p90_s", percentile(wait, 90), n)
	o.set("serve.delivery_p50_s", percentile(deliver, 50), n)
	for _, k := range append(kinds, "miss") {
		o.set("serve.run_"+k+"_p50_s", percentile(runs[k], 50), len(runs[k]))
	}
	o.set("serve.slot_busy_share", sum(busy)/wall.Seconds(), n)
	o.set("serve.rejected", m1["jobs_rejected_total"]-m0["jobs_rejected_total"], n)
	o.set("serve.queue_depth_max", float64(queueDepthMax(jobs)), n)
	o.set("flows.store_hits", hits, 1)
	o.set("flows.store_misses", misses, 1)
	o.set("flows.store_builds", m1["artifact_cache_builds_total"]-m0["artifact_cache_builds_total"], 1)
	if hits+misses > 0 {
		o.set("flows.hit_ratio", hits/(hits+misses), 1)
	}
	o.set("host.cpu_util", (cpu1-cpu0)/(wall.Seconds()*float64(runtime.NumCPU())), 1)
	var roots, shares []float64
	for _, t := range o.trees {
		roots = append(roots, t.Dur)
		shares = append(shares, attributed(t))
	}
	o.set("trace.root_s", median(roots), n)
	o.set("trace.attributed_share", median(shares), n)
	return o, nil
}

// mixTree is a served job's span tree: the client's submit-to-result span
// over the daemon's queue wait and run, and the client's submit and
// result delivery. Submit overlaps the queue wait: the daemon queues the
// job before its 202 reaches the client.
func mixTree(mj mixJob) *Span {
	j := mj.run
	tr := &tracer{origin: j.t0, root: &Span{Name: "job." + mj.req.Kind}}
	tr.add(tr.root, "serve.submit", j.t0, j.submitted)
	tr.add(tr.root, "serve.queue_wait", j.queuedAt, j.startedAt)
	tr.add(tr.root, "serve.run", j.startedAt, j.finishedAt)
	tr.add(tr.root, "serve.delivery", j.finishedAt, j.end)
	return tr.finish(j.end)
}

// queueDepthMax is the most jobs ever queued but not yet started at once,
// from the daemon's own queued and started stamps.
func queueDepthMax(jobs []mixJob) int {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, mj := range jobs {
		edges = append(edges, edge{mj.run.queuedAt, +1}, edge{mj.run.startedAt, -1})
	}
	// Starts sort before queues at the same instant: a job that starts
	// as another arrives did not wait beside it.
	sort.Slice(edges, func(a, b int) bool {
		if !edges[a].at.Equal(edges[b].at) {
			return edges[a].at.Before(edges[b].at)
		}
		return edges[a].delta < edges[b].delta
	})
	depth, most := 0, 0
	for _, e := range edges {
		depth += e.delta
		most = max(most, depth)
	}
	return most
}
