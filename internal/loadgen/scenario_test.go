package loadgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTenantTagDigestPreserved is the multi-tenancy acceptance pin: an
// untagged schedule serializes without any tenant keys at all — so its
// digest is exactly what it was before tenancy existed — while the same
// Config with a Tenant differs only by the tag, not by arrivals or
// bodies.
func TestTenantTagDigestPreserved(t *testing.T) {
	plain, err := Build(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"tenant"`) || strings.Contains(string(b), `"class"`) {
		t.Fatal("untagged requests serialized tenant/class keys; digests would shift")
	}
	if b, err = json.Marshal(plain.Clients); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"tenant"`) {
		t.Fatal("untagged clients serialized a tenant key; digests would shift")
	}

	cfg := testConfig(42)
	cfg.Tenant = "team-a"
	cfg.Class = "interactive"
	tagged, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Digest() == plain.Digest() {
		t.Fatal("tagging is part of workload identity; digests must differ")
	}
	if len(tagged.Requests) != len(plain.Requests) {
		t.Fatalf("tagging changed request count: %d vs %d", len(tagged.Requests), len(plain.Requests))
	}
	for i := range tagged.Requests {
		rt, rp := tagged.Requests[i], plain.Requests[i]
		if rt.Tenant != "team-a" || rt.Class != "interactive" {
			t.Fatalf("request %d not tagged: %+v", i, rt)
		}
		if rt.At != rp.At || rt.Kind != rp.Kind || rt.Warm != rp.Warm || !bytes.Equal(rt.Body, rp.Body) {
			t.Fatalf("tagging perturbed request %d beyond the tag: %+v vs %+v", i, rt, rp)
		}
	}
}

// TestMerge checks the multi-population combiner: client IDs reindexed
// with requests following, seqs reassigned over the merged arrival
// order, canonicals unioned, and seeds concatenated in client order.
func TestMerge(t *testing.T) {
	ca := testConfig(1)
	ca.Clients = 3
	ca.Tenant = "a"
	cb := testConfig(2)
	cb.Clients = 2
	cb.Tenant = "b"
	a, err := Build(ca)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(cb)
	if err != nil {
		t.Fatal(err)
	}
	m := Merge(a, b)

	if got, want := len(m.Clients), len(a.Clients)+len(b.Clients); got != want {
		t.Fatalf("merged clients = %d, want %d", got, want)
	}
	if got, want := len(m.Requests), len(a.Requests)+len(b.Requests); got != want {
		t.Fatalf("merged requests = %d, want %d", got, want)
	}
	if got, want := len(m.Seeds), len(a.Seeds)+len(b.Seeds); got != want {
		t.Fatalf("merged seeds = %d, want %d", got, want)
	}
	for i, c := range m.Clients {
		if c.ID != i {
			t.Fatalf("client %d has ID %d; want dense reindex", i, c.ID)
		}
		want := "a"
		if i >= len(a.Clients) {
			want = "b"
		}
		if c.Tenant != want {
			t.Fatalf("client %d tenant = %q, want %q", i, c.Tenant, want)
		}
	}
	// Seeds follow their clients across the reindex, so jitter derivation
	// is stable for the second schedule's population too.
	for i, s := range b.Seeds {
		if m.Seeds[len(a.Seeds)+i] != s {
			t.Fatalf("seed for reindexed client %d lost", len(a.Seeds)+i)
		}
	}
	last := time.Duration(-1)
	for i, r := range m.Requests {
		if r.Seq != i+1 {
			t.Fatalf("request %d has seq %d; want dense renumbering", i, r.Seq)
		}
		if r.At < last {
			t.Fatalf("merged requests not time-ordered at %d", i)
		}
		last = r.At
		if r.Client < 0 || r.Client >= len(m.Clients) {
			t.Fatalf("request %d references client %d outside merged population", i, r.Client)
		}
		if m.Clients[r.Client].Tenant != r.Tenant {
			t.Fatalf("request %d tenant %q does not match its client's %q",
				i, r.Tenant, m.Clients[r.Client].Tenant)
		}
	}
	for kind := range a.Canonical {
		if _, ok := m.Canonical[kind]; !ok {
			t.Fatalf("canonical %s lost in merge", kind)
		}
	}
}

// TestBuildNoisyNeighbor pins the scenario's core guarantee: the victim
// population is identical between the solo baseline and the contended
// schedule — same arrivals, same bodies — so the p99 comparison is
// apples to apples.
func TestBuildNoisyNeighbor(t *testing.T) {
	solo, combined, err := BuildNoisyNeighbor(NoisyNeighborConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Requests) == 0 {
		t.Fatal("empty victim schedule")
	}
	for _, r := range solo.Requests {
		if r.Tenant != "victim" {
			t.Fatalf("solo request tagged %q, want victim", r.Tenant)
		}
		if !r.Warm {
			t.Fatal("victim traffic must be warm-only")
		}
	}
	var victims, aggressors []Request
	for _, r := range combined.Requests {
		switch r.Tenant {
		case "victim":
			victims = append(victims, r)
		case "aggressor":
			aggressors = append(aggressors, r)
		default:
			t.Fatalf("unexpected tenant %q in combined schedule", r.Tenant)
		}
	}
	if len(victims) != len(solo.Requests) {
		t.Fatalf("victim request count drifted: solo %d, combined %d",
			len(solo.Requests), len(victims))
	}
	for i := range victims {
		v, s := victims[i], solo.Requests[i]
		if v.At != s.At || v.Kind != s.Kind || !bytes.Equal(v.Body, s.Body) {
			t.Fatalf("victim request %d differs between legs: %+v vs %+v", i, v, s)
		}
	}
	if len(aggressors) == 0 {
		t.Fatal("no aggressor traffic")
	}
	// The aggressor floods: many times the victim's volume, all cold.
	if len(aggressors) < 5*len(victims) {
		t.Fatalf("aggressor volume %d not flooding next to victim %d",
			len(aggressors), len(victims))
	}
	for _, r := range aggressors {
		if r.Warm {
			t.Fatal("aggressor traffic must be cold (fresh campaign builds)")
		}
	}
}

// TestWriteSummaryFairness pins the noisy-neighbor summary: the victim's
// name appears once in the verdict line and each violation is listed once.
func TestWriteSummaryFairness(t *testing.T) {
	r := &Report{Fairness: &FairnessResult{
		Checked: true, Victim: "victim", Aggressor: "aggressor",
		Bound: 3, FloorMS: 250, SoloP99MS: 10, FairP99MS: 900,
		Violations: []string{"victim warm p99 900.0ms exceeds budget 250.0ms"},
	}}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "fairness: victim warm p99 solo 10.0ms") || strings.Contains(out, "victim victim") {
		t.Errorf("verdict line does not name the victim once:\n%s", out)
	}
	if n := strings.Count(out, "FAIRNESS VIOLATION: "); n != 1 {
		t.Errorf("summary lists %d violation lines, want 1:\n%s", n, out)
	}
}
