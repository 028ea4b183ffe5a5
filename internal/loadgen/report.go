package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"rescue/internal/obs"
)

// LatencyStats summarizes one latency population in milliseconds,
// percentiles by obs.Histogram's nearest-rank extraction.
type LatencyStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// KindStats is one job kind's slice of the run.
type KindStats struct {
	LatencyStats
	Warm    int `json:"warm"`
	Cold    int `json:"cold"`
	Errors  int `json:"errors"`
	Retries int `json:"retries"`
}

// TenantStats is one tenant's slice of the run.
type TenantStats struct {
	LatencyStats
	// Warm is the tenant's warm-request latency population — the fairness
	// gate's subject, since warm serving is what a victim tenant loses
	// first under a noisy neighbor.
	Warm     LatencyStats `json:"warm"`
	Errors   int          `json:"errors"`
	Rejected int          `json:"rejected"`
	Retries  int          `json:"retries"`
}

// FairnessResult records the noisy-neighbor verdict: the victim tenant's
// warm p99 under contention versus its solo baseline, in fair and
// (optionally) unfair scheduling modes.
type FairnessResult struct {
	Checked   bool   `json:"checked"`
	Victim    string `json:"victim"`
	Aggressor string `json:"aggressor"`
	// Bound is the allowed fair-mode degradation multiple over solo.
	Bound float64 `json:"bound"`
	// FloorMS guards against sub-noise solo baselines: the fair-mode
	// budget is max(Bound*solo, FloorMS).
	FloorMS     float64 `json:"floor_ms"`
	SoloP99MS   float64 `json:"solo_p99_ms"`
	FairP99MS   float64 `json:"fair_p99_ms"`
	UnfairP99MS float64 `json:"unfair_p99_ms,omitempty"`
	// UnfairStarved marks an unfair leg where no victim warm request
	// succeeded at all — the strongest possible violation.
	UnfairStarved bool     `json:"unfair_starved,omitempty"`
	Violations    []string `json:"violations,omitempty"`
}

// SLOResult records the declared floors and the verdict.
type SLOResult struct {
	P99WarmMS    float64  `json:"p99_warm_ms,omitempty"`
	MaxErrorRate float64  `json:"max_error_rate"`
	Checked      bool     `json:"checked"`
	Violations   []string `json:"violations,omitempty"`
}

// Report is the machine-readable outcome of a load test — what
// BENCH_loadtest.json holds and what the CI gate reads.
type Report struct {
	Bench    string `json:"bench"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"schedule_digest"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`

	DurationS float64 `json:"duration_s"`
	WallS     float64 `json:"wall_s"`
	// ThroughputRPS is completed-successfully requests per wall second.
	ThroughputRPS float64 `json:"throughput_rps"`

	PerKind map[string]KindStats `json:"per_kind"`
	// PerTenant splits the run by tenant identity; empty for untagged
	// (single-tenant) workloads, whose report shape is unchanged.
	PerTenant map[string]TenantStats `json:"per_tenant,omitempty"`
	// Warm/Cold aggregate latency across kinds; Warm is the SLO subject.
	Warm LatencyStats `json:"warm"`
	Cold LatencyStats `json:"cold"`

	Errors   int `json:"errors"`
	Rejected int `json:"rejected"`
	Retries  int `json:"retries"`
	// ErrorRate is errors (rejected included) over all requests.
	ErrorRate float64 `json:"error_rate"`

	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRatio    float64 `json:"hit_ratio"`

	QueueDepthMax  int64   `json:"queue_depth_max"`
	QueueDepthMean float64 `json:"queue_depth_mean"`
	SlotsBusyMean  float64 `json:"slots_busy_mean"`
	Slots          int64   `json:"slots"`
	PrewarmMS      float64 `json:"prewarm_ms"`

	// DropMarkers counts streams that saw a dropped marker from the
	// server's bounded event buffers; DroppedEvents sums the evictions.
	DropMarkers   int `json:"drop_markers,omitempty"`
	DroppedEvents int `json:"dropped_events,omitempty"`

	SLO SLOResult `json:"slo"`
	// Fairness is the noisy-neighbor verdict; only scenario runs set it.
	Fairness *FairnessResult `json:"fairness,omitempty"`
}

// BuildReport reduces a run's raw results to the benchmark report.
func BuildReport(cfg Config, sch *Schedule, st *RunStats) *Report {
	r := &Report{
		Bench:     "loadtest",
		Seed:      cfg.Seed,
		Digest:    sch.Digest(),
		Clients:   len(sch.Clients),
		Requests:  len(st.Results),
		DurationS: cfg.Duration.Seconds(),
		WallS:     st.Wall.Seconds(),
		PerKind:   map[string]KindStats{},

		CacheHits:      st.CacheHits,
		CacheMisses:    st.CacheMisses,
		QueueDepthMax:  st.QueueDepthMax,
		QueueDepthMean: round2(st.QueueDepthMean),
		SlotsBusyMean:  round2(st.SlotsBusyMean),
		Slots:          st.Slots,
		PrewarmMS:      round2(st.PrewarmMS),
		DropMarkers:    st.DropMarkers,
		DroppedEvents:  st.DroppedEvents,
	}

	kindHist := map[string]*obs.Histogram{}
	type tenantHists struct{ all, warm *obs.Histogram }
	tenantHist := map[string]*tenantHists{}
	tenantStats := map[string]TenantStats{}
	warmHist, coldHist := &obs.Histogram{}, &obs.Histogram{}
	succeeded := 0
	for _, rr := range st.Results {
		ks := r.PerKind[rr.Kind]
		ks.Count++
		ks.Retries += rr.Retries
		r.Retries += rr.Retries
		ts := tenantStats[rr.Tenant]
		ts.Retries += rr.Retries
		if rr.Warm {
			ks.Warm++
		} else {
			ks.Cold++
		}
		switch {
		case rr.OK():
			succeeded++
			h := kindHist[rr.Kind]
			if h == nil {
				h = &obs.Histogram{}
				kindHist[rr.Kind] = h
			}
			h.Observe(rr.TotalMS)
			if rr.Warm {
				warmHist.Observe(rr.TotalMS)
			} else {
				coldHist.Observe(rr.TotalMS)
			}
			th := tenantHist[rr.Tenant]
			if th == nil {
				th = &tenantHists{all: &obs.Histogram{}, warm: &obs.Histogram{}}
				tenantHist[rr.Tenant] = th
			}
			th.all.Observe(rr.TotalMS)
			if rr.Warm {
				th.warm.Observe(rr.TotalMS)
			}
		case rr.State == "rejected":
			r.Rejected++
			ks.Errors++
			r.Errors++
			ts.Rejected++
			ts.Errors++
		default:
			ks.Errors++
			r.Errors++
			ts.Errors++
		}
		r.PerKind[rr.Kind] = ks
		tenantStats[rr.Tenant] = ts
	}
	for kind, h := range kindHist {
		ks := r.PerKind[kind]
		ks.LatencyStats = latencyOf(h)
		r.PerKind[kind] = ks
	}
	r.Warm = latencyOf(warmHist)
	r.Cold = latencyOf(coldHist)

	// Per-tenant stats only exist for tagged workloads: an untagged run
	// has the single "" tenant, and its report keeps the legacy shape.
	_, untagged := tenantStats[""]
	if len(tenantStats) > 0 && !(len(tenantStats) == 1 && untagged) {
		r.PerTenant = map[string]TenantStats{}
		for name, ts := range tenantStats {
			if th := tenantHist[name]; th != nil {
				ts.LatencyStats = latencyOf(th.all)
				ts.Warm = latencyOf(th.warm)
			}
			if name == "" {
				name = "default"
			}
			r.PerTenant[name] = ts
		}
	}

	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if r.WallS > 0 {
		r.ThroughputRPS = round2(float64(succeeded) / r.WallS)
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		r.HitRatio = round2(float64(st.CacheHits) / float64(total))
	}
	return r
}

func latencyOf(h *obs.Histogram) LatencyStats {
	count, _, _, max := h.Snapshot()
	qs := h.Quantiles(0.5, 0.9, 0.99)
	return LatencyStats{
		Count: int(count),
		P50MS: round2(qs[0]),
		P90MS: round2(qs[1]),
		P99MS: round2(qs[2]),
		MaxMS: round2(max),
	}
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// CheckSLOs evaluates the declared floors against the report and records
// the verdict in r.SLO. p99Warm 0 disables the latency check; maxErrRate
// < 0 disables the error check. It returns the violations.
func (r *Report) CheckSLOs(p99Warm time.Duration, maxErrRate float64) []string {
	r.SLO = SLOResult{Checked: true, MaxErrorRate: maxErrRate}
	var v []string
	if p99Warm > 0 {
		r.SLO.P99WarmMS = float64(p99Warm) / float64(time.Millisecond)
		if r.Warm.Count == 0 {
			v = append(v, "warm p99 SLO declared but no warm request succeeded")
		} else if r.Warm.P99MS > r.SLO.P99WarmMS {
			v = append(v, fmt.Sprintf("warm p99 %.2fms exceeds SLO %.2fms",
				r.Warm.P99MS, r.SLO.P99WarmMS))
		}
	}
	if maxErrRate >= 0 && r.ErrorRate > maxErrRate {
		v = append(v, fmt.Sprintf("error rate %.4f exceeds floor %.4f (%d errors / %d requests)",
			r.ErrorRate, maxErrRate, r.Errors, r.Requests))
	}
	r.SLO.Violations = v
	return v
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteSummary renders the human-readable digest of a run.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "loadtest: seed %d, %d clients, %d requests over %.1fs (wall %.1fs)\n",
		r.Seed, r.Clients, r.Requests, r.DurationS, r.WallS)
	fmt.Fprintf(w, "throughput %.2f done/s; cache %d hits / %d misses (ratio %.2f); %d retries, %d errors (%d rejected)\n",
		r.ThroughputRPS, r.CacheHits, r.CacheMisses, r.HitRatio, r.Retries, r.Errors, r.Rejected)
	fmt.Fprintf(w, "queue depth max %d mean %.2f; busy slots mean %.2f of %d\n",
		r.QueueDepthMax, r.QueueDepthMean, r.SlotsBusyMean, r.Slots)
	fmt.Fprintf(w, "%-10s %6s %5s %5s %10s %10s %10s %10s %7s\n",
		"kind", "count", "warm", "cold", "p50", "p90", "p99", "max", "errors")
	kinds := make([]string, 0, len(r.PerKind))
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := r.PerKind[k]
		fmt.Fprintf(w, "%-10s %6d %5d %5d %9.1fms %9.1fms %9.1fms %9.1fms %7d\n",
			k, ks.Count, ks.Warm, ks.Cold, ks.P50MS, ks.P90MS, ks.P99MS, ks.MaxMS, ks.Errors)
	}
	fmt.Fprintf(w, "%-10s %6d %5s %5s %9.1fms %9.1fms %9.1fms %9.1fms\n",
		"warm(all)", r.Warm.Count, "-", "-", r.Warm.P50MS, r.Warm.P90MS, r.Warm.P99MS, r.Warm.MaxMS)
	if r.Cold.Count > 0 {
		fmt.Fprintf(w, "%-10s %6d %5s %5s %9.1fms %9.1fms %9.1fms %9.1fms\n",
			"cold(all)", r.Cold.Count, "-", "-", r.Cold.P50MS, r.Cold.P90MS, r.Cold.P99MS, r.Cold.MaxMS)
	}
	if len(r.PerTenant) > 0 {
		tenants := make([]string, 0, len(r.PerTenant))
		for t := range r.PerTenant {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		fmt.Fprintf(w, "%-14s %6s %10s %10s %10s %8s %7s\n",
			"tenant", "ok", "p50", "p99", "warm p99", "rejected", "errors")
		for _, t := range tenants {
			ts := r.PerTenant[t]
			fmt.Fprintf(w, "%-14s %6d %9.1fms %9.1fms %9.1fms %8d %7d\n",
				t, ts.Count, ts.P50MS, ts.P99MS, ts.Warm.P99MS, ts.Rejected, ts.Errors)
		}
	}
	if r.DropMarkers > 0 {
		fmt.Fprintf(w, "event drops: %d streams saw dropped markers (%d events evicted by bounded buffers)\n",
			r.DropMarkers, r.DroppedEvents)
	}
	if r.Fairness != nil && r.Fairness.Checked {
		f := r.Fairness
		fmt.Fprintf(w, "fairness: %s warm p99 solo %.1fms, fair %.1fms (bound %.1fx, floor %.1fms)",
			f.Victim, f.SoloP99MS, f.FairP99MS, f.Bound, f.FloorMS)
		if f.UnfairStarved {
			fmt.Fprintf(w, "; unfair starved victim entirely")
		} else if f.UnfairP99MS > 0 {
			fmt.Fprintf(w, "; unfair %.1fms", f.UnfairP99MS)
		}
		fmt.Fprintln(w)
		if len(f.Violations) == 0 {
			fmt.Fprintln(w, "fairness: ok")
		} else {
			for _, v := range f.Violations {
				fmt.Fprintf(w, "FAIRNESS VIOLATION: %s\n", v)
			}
		}
	}
	if r.SLO.Checked {
		if len(r.SLO.Violations) == 0 {
			fmt.Fprintf(w, "SLO: ok")
			if r.SLO.P99WarmMS > 0 {
				fmt.Fprintf(w, " (warm p99 %.2fms <= %.2fms", r.Warm.P99MS, r.SLO.P99WarmMS)
				if r.SLO.MaxErrorRate >= 0 {
					fmt.Fprintf(w, ", error rate %.4f <= %.4f", r.ErrorRate, r.SLO.MaxErrorRate)
				}
				fmt.Fprintf(w, ")")
			}
			fmt.Fprintln(w)
		} else {
			for _, v := range r.SLO.Violations {
				fmt.Fprintf(w, "SLO VIOLATION: %s\n", v)
			}
		}
	}
}
