// Package loadgen is a seeded, ServeGen-style load generator for the
// rescued batch daemon: it constructs a heterogeneous client population —
// per-client job-kind mixes over the serving kinds, Zipf-skewed request
// rates, Poisson arrivals with optional bursts, and a configurable
// cache-hit ratio realized by reusing vs. perturbing flow seeds — and
// compiles it into a deterministic request schedule.
//
// Determinism is the point: the same Config (seed included) always builds
// the identical schedule — same clients, same kinds, same arrival times,
// same request bodies — so latency measurements are comparable across
// commits and the CI SLO gate compares like with like. All randomness
// flows from Config.Seed through per-client derived sources; nothing in
// schedule construction reads the clock.
//
// The firing engine (Run) replays a schedule against a live daemon over
// real HTTP — submit, stream events to completion, back off on 429 by the
// server's Retry-After — and the report layer turns the recorded
// latencies into per-kind percentiles and SLO verdicts.
package loadgen

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Profile is one job-kind template in the population's traffic mix.
type Profile struct {
	// Kind is the serve job kind ("table3", "isolation", ...).
	Kind string
	// Weight is the kind's share of aggregate traffic (relative).
	Weight float64
	// Params is the canonical parameter set — the warm identity. Requests
	// that should hit the artifact cache submit exactly these params.
	Params map[string]any
	// SeedKey names the integer param whose perturbation changes the
	// kind's artifact identity (a cache miss). "" marks the kind
	// warm-only: every request reuses the canonical params.
	SeedKey string
}

// Config seeds a client population.
type Config struct {
	// Seed drives every random choice below. Same Config = same schedule.
	Seed int64
	// Clients is the population size.
	Clients int
	// Duration is the schedule horizon; arrivals past it are dropped.
	Duration time.Duration
	// RPS is the aggregate target arrival rate across all clients.
	RPS float64
	// Skew is the Zipf-like exponent over client rates: client i carries
	// weight (i+1)^-Skew. 0 = uniform; 1 ≈ classic Zipf (a few heavy
	// hitters, a long tail).
	Skew float64
	// HitRatio is the probability a request reuses its kind's canonical
	// seed (an artifact-cache hit once warmed) instead of perturbing it.
	HitRatio float64
	// BurstFrac is the fraction of clients with bursty arrivals: at each
	// Poisson epoch a bursty client emits a geometric burst of follow-up
	// requests instead of a single one.
	BurstFrac float64
	// BurstLen is the mean number of extra requests per burst epoch.
	// 0 = 3.
	BurstLen float64
	// BurstGap spaces requests within one burst. 0 = 5ms.
	BurstGap time.Duration
	// Profiles is the kind mix. Required.
	Profiles []Profile
	// Tenant, when set, tags every generated request with this tenant
	// identity (spec "tenant" field + X-Rescue-Client header at fire
	// time). "" leaves requests untagged — the schedule bytes, and
	// therefore the digest, are identical to pre-tenancy builds.
	Tenant string
	// Class, when set, tags every request with a priority class
	// ("interactive" or "batch").
	Class string
}

func (c *Config) setDefaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("loadgen: need >= 1 client, got %d", c.Clients)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: need a positive duration, got %v", c.Duration)
	}
	if c.RPS <= 0 {
		return fmt.Errorf("loadgen: need a positive rps, got %g", c.RPS)
	}
	if c.HitRatio < 0 || c.HitRatio > 1 {
		return fmt.Errorf("loadgen: hit ratio must be in [0,1], got %g", c.HitRatio)
	}
	if c.Skew < 0 {
		return fmt.Errorf("loadgen: skew must be >= 0, got %g", c.Skew)
	}
	if c.BurstFrac < 0 || c.BurstFrac > 1 {
		return fmt.Errorf("loadgen: burst fraction must be in [0,1], got %g", c.BurstFrac)
	}
	if len(c.Profiles) == 0 {
		return fmt.Errorf("loadgen: need at least one kind profile")
	}
	total := 0.0
	for _, p := range c.Profiles {
		if p.Kind == "" || p.Weight < 0 {
			return fmt.Errorf("loadgen: bad profile %+v", p)
		}
		total += p.Weight
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: profile weights sum to %g, need > 0", total)
	}
	if c.BurstLen == 0 {
		c.BurstLen = 3
	}
	if c.BurstGap == 0 {
		c.BurstGap = 5 * time.Millisecond
	}
	return nil
}

// Client is one member of the population.
type Client struct {
	ID int `json:"id"`
	// Rate is the client's Poisson arrival rate in requests/second.
	Rate float64 `json:"rate"`
	// Bursty clients emit geometric bursts at each arrival epoch.
	Bursty bool `json:"bursty"`
	// Mix is the client's per-profile kind distribution (sums to 1). Each
	// client leans heavily on one favorite kind — ServeGen's client
	// heterogeneity — with the rest of the mass spread by global weight.
	Mix []float64 `json:"mix"`
	// Tenant is the identity this client fires under (X-Rescue-Client).
	// omitempty: untagged populations serialize — and digest — exactly as
	// they did before multi-tenancy existed.
	Tenant string `json:"tenant,omitempty"`
}

// Request is one scheduled job submission.
type Request struct {
	Seq    int           `json:"seq"`
	At     time.Duration `json:"at"`
	Client int           `json:"client"`
	Kind   string        `json:"kind"`
	// Warm marks requests that submit their kind's canonical params and
	// should therefore be artifact-cache hits once the cache is primed.
	Warm bool `json:"warm"`
	// Tenant and Class ride as X-Rescue-Client / X-Rescue-Class headers at
	// fire time — never in Body, so tagging a workload doesn't perturb the
	// jobs' artifact identities. omitempty keeps untagged schedules
	// byte-identical (and digest-identical) to pre-tenancy builds.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Body is the full POST /jobs payload.
	Body json.RawMessage `json:"body"`
}

// Schedule is a compiled workload: the population and its time-ordered
// request list, plus each profile's canonical body for cache prewarming.
type Schedule struct {
	Clients  []Client
	Requests []Request
	// Canonical maps kind -> the warm-identity POST body.
	Canonical map[string]json.RawMessage
	// Seeds holds each client's derived arrival seed. The firing loop
	// reuses it to jitter 429 backoff deterministically per request, so two
	// runs of one schedule back off identically. Excluded from Digest —
	// the seeds are derived state, not workload identity.
	Seeds []int64
}

// affinity is how much of a client's kind mix concentrates on its
// favorite profile; the remainder follows the global weights.
const affinity = 0.7

// Build compiles a Config into its deterministic Schedule.
func Build(cfg Config) (*Schedule, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Global kind distribution.
	global := make([]float64, len(cfg.Profiles))
	total := 0.0
	for i, p := range cfg.Profiles {
		total += p.Weight
		global[i] = p.Weight
	}
	for i := range global {
		global[i] /= total
	}

	// Population: Zipf-skewed rates, favorite-kind mixes, burstiness, and
	// one derived arrival seed per client (drawn in client order, so each
	// client's arrival stream is independent of the others' sample counts).
	sch := &Schedule{Canonical: map[string]json.RawMessage{}}
	weightSum := 0.0
	weights := make([]float64, cfg.Clients)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -cfg.Skew)
		weightSum += weights[i]
	}
	seeds := make([]int64, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		fav := sample(rng.Float64(), global)
		mix := make([]float64, len(global))
		for p := range mix {
			mix[p] = (1 - affinity) * global[p]
			if p == fav {
				mix[p] += affinity
			}
		}
		sch.Clients = append(sch.Clients, Client{
			ID:     i,
			Rate:   cfg.RPS * weights[i] / weightSum,
			Bursty: rng.Float64() < cfg.BurstFrac,
			Mix:    mix,
			Tenant: cfg.Tenant,
		})
		seeds[i] = rng.Int63()
	}
	sch.Seeds = seeds

	for i, p := range cfg.Profiles {
		body, err := specBody(p.Kind, p.Params)
		if err != nil {
			return nil, fmt.Errorf("loadgen: profile %d (%s): %w", i, p.Kind, err)
		}
		sch.Canonical[p.Kind] = body
	}

	// Arrival streams. Each client owns a derived RNG; bursty clients
	// follow every Poisson epoch with a geometric train of extra requests.
	for i := range sch.Clients {
		c := &sch.Clients[i]
		crng := rand.New(rand.NewSource(seeds[i]))
		t := time.Duration(0)
		for {
			t += time.Duration(crng.ExpFloat64() / c.Rate * float64(time.Second))
			if t >= cfg.Duration {
				break
			}
			if err := emit(sch, cfg, crng, c, t); err != nil {
				return nil, err
			}
			if c.Bursty {
				extra := 0
				for crng.Float64() < cfg.BurstLen/(cfg.BurstLen+1) {
					extra++
				}
				for k := 1; k <= extra; k++ {
					bt := t + time.Duration(k)*cfg.BurstGap
					if bt >= cfg.Duration {
						break
					}
					if err := emit(sch, cfg, crng, c, bt); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	sort.SliceStable(sch.Requests, func(a, b int) bool {
		ra, rb := sch.Requests[a], sch.Requests[b]
		if ra.At != rb.At {
			return ra.At < rb.At
		}
		return ra.Client < rb.Client
	})
	for i := range sch.Requests {
		sch.Requests[i].Seq = i + 1
	}
	return sch, nil
}

// emit appends one request at time t for client c: kind by the client's
// mix, warm/cold by the hit ratio, cold seeds perturbed uniquely.
func emit(sch *Schedule, cfg Config, crng *rand.Rand, c *Client, t time.Duration) error {
	pi := sample(crng.Float64(), c.Mix)
	p := cfg.Profiles[pi]
	warm := p.SeedKey == "" || crng.Float64() < cfg.HitRatio
	body := sch.Canonical[p.Kind]
	if !warm {
		// A fresh seed far above any canonical one (canonical flow seeds
		// are small constants), so a cold request never aliases a warm
		// identity or, with overwhelming probability, another cold one.
		params := map[string]any{}
		for k, v := range p.Params {
			params[k] = v
		}
		params[p.SeedKey] = int64(1)<<32 + crng.Int63n(1<<62)
		b, err := specBody(p.Kind, params)
		if err != nil {
			return fmt.Errorf("loadgen: cold body for %s: %w", p.Kind, err)
		}
		body = b
	}
	sch.Requests = append(sch.Requests, Request{
		At:     t,
		Client: c.ID,
		Kind:   p.Kind,
		Warm:   warm,
		Tenant: cfg.Tenant,
		Class:  cfg.Class,
		Body:   body,
	})
	return nil
}

// Merge combines schedules built from separate Configs — typically one
// per tenant — into a single time-ordered workload. Client IDs are
// reindexed by offset (requests follow), seqs are reassigned over the
// merged arrival order, canonicals are unioned, and Seeds concatenate in
// client order so per-request backoff jitter stays deterministic.
func Merge(schs ...*Schedule) *Schedule {
	out := &Schedule{Canonical: map[string]json.RawMessage{}}
	for _, s := range schs {
		offset := len(out.Clients)
		for _, c := range s.Clients {
			c.ID += offset
			out.Clients = append(out.Clients, c)
		}
		out.Seeds = append(out.Seeds, s.Seeds...)
		for _, r := range s.Requests {
			r.Client += offset
			out.Requests = append(out.Requests, r)
		}
		for k, v := range s.Canonical {
			out.Canonical[k] = v
		}
	}
	sort.SliceStable(out.Requests, func(a, b int) bool {
		ra, rb := out.Requests[a], out.Requests[b]
		if ra.At != rb.At {
			return ra.At < rb.At
		}
		return ra.Client < rb.Client
	})
	for i := range out.Requests {
		out.Requests[i].Seq = i + 1
	}
	return out
}

// sample returns the index of the bucket u ∈ [0,1) falls into for a
// normalized weight vector.
func sample(u float64, weights []float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// specBody renders a POST /jobs payload. encoding/json sorts map keys, so
// identical params always produce identical bytes — which is what makes a
// warm request's spec digest match its twin's.
func specBody(kind string, params map[string]any) (json.RawMessage, error) {
	type spec struct {
		Kind   string         `json:"kind"`
		Params map[string]any `json:"params,omitempty"`
	}
	return json.Marshal(spec{Kind: kind, Params: params})
}

// Digest is a stable fingerprint of the compiled schedule — clients,
// kinds, arrival times, and request bodies all count. Two runs are
// comparable iff their digests match.
func (s *Schedule) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(s.Clients)
	enc.Encode(s.Requests)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// SmallMix is the default small-config traffic mix: every serving kind,
// weighted toward the cheap ones, with cold traffic (perturbed seeds)
// enabled on the kinds whose artifact rebuild is campaign-sized rather
// than ATPG-sized — isolation re-runs its sampling campaign (~5ms small)
// and fab re-manufactures its 100-die fleet (~3ms), while a perturbed
// table3 seed would regenerate the full test set (~0.2s) per request.
func SmallMix() []Profile {
	return []Profile{
		{Kind: "table3", Weight: 3, Params: map[string]any{"small": true}},
		{Kind: "dict", Weight: 1, Params: map[string]any{"small": true}},
		{Kind: "isolation", Weight: 3, SeedKey: "seed",
			Params: map[string]any{"small": true, "perStage": 50}},
		{Kind: "fab", Weight: 2, SeedKey: "seed",
			Params: map[string]any{"small": true, "dies": 100, "warmup": 500, "commit": 2000}},
		{Kind: "yat", Weight: 1,
			Params: map[string]any{"bench": "gcc", "warmup": 500, "commit": 2000, "stagnate": 180}},
		// A single-point design-space sweep: warm traffic reuses every
		// artifact; a perturbed seed re-runs only the fleet campaign (the
		// netlist/ATPG/IPC artifacts are seed-independent).
		{Kind: "sweep", Weight: 1, SeedKey: "seed",
			Params: map[string]any{"presets": []any{"paper"}, "small": true,
				"dies": 40, "warmup": 100, "commit": 500}},
	}
}
