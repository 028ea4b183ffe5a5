package flows

import (
	"errors"
	"sync"
	"testing"

	"rescue/internal/rtl"
)

// TestStoreSingleflight: concurrent requesters of one key run one build and
// share the result; all but the builder count as hits.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore()
	gate := make(chan struct{})
	var builds int
	const n = 8
	var wg sync.WaitGroup
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.do("k", func() (any, error) {
				<-gate // hold the build open so the others must join it
				builds++
				return "artifact", nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			vals[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	for i, v := range vals {
		if v != "artifact" {
			t.Fatalf("requester %d got %v", i, v)
		}
	}
	if s.Builds() != 1 || s.Hits() != n-1 {
		t.Fatalf("counters: builds=%d hits=%d, want 1 and %d", s.Builds(), s.Hits(), n-1)
	}
	if s.Len() != 1 {
		t.Fatalf("store retains %d entries, want 1", s.Len())
	}
}

// TestStoreErrorNotRetained: a failed build is dropped so the next request
// retries instead of being served the stale error.
func TestStoreErrorNotRetained(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	if _, _, err := s.do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first build: %v, want boom", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed build was retained")
	}
	v, hit, err := s.do("k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry got (%v, hit=%v, %v), want fresh 42", v, hit, err)
	}
}

// TestDigestDeterministic: equal keys address equal artifacts; different
// kinds or fields do not collide.
func TestDigestDeterministic(t *testing.T) {
	key := func(seed int64) tpKey {
		return tpKey{Sys: sysKey{rtl.Small(), 1, rtl.RescueDesign.String()}, Seed: seed}
	}
	a := digest("testprogram", key(1))
	b := digest("testprogram", key(1))
	if a != b {
		t.Fatalf("equal keys digest differently: %s vs %s", a, b)
	}
	if a == digest("testprogram", key(2)) {
		t.Fatal("different seeds collide")
	}
	if a == digest("dictionary", key(1)) {
		t.Fatal("different kinds collide")
	}
	split := key(1)
	split.Sys.Chains = 4
	if a == digest("testprogram", split) {
		t.Fatal("different scan splits collide")
	}
}
