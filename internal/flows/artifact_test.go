package flows

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
			v, _, err := s.do(context.Background(), "k", func() (any, error) {
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
	if _, _, err := s.do(context.Background(), "k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first build: %v, want boom", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed build was retained")
	}
	v, hit, err := s.do(context.Background(), "k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry got (%v, hit=%v, %v), want fresh 42", v, hit, err)
	}
}

// TestStoreWaiterOutlivesCanceledBuilder: when the builder's own context
// is cancelled mid-build, a waiter whose context is still live builds the
// artifact itself instead of inheriting the builder's cancellation; an
// error from a live builder is still shared with its waiters.
func TestStoreWaiterOutlivesCanceledBuilder(t *testing.T) {
	s := NewStore()
	canceledA := errors.New("job A canceled by client")
	ctxA, cancelA := context.WithCancelCause(context.Background())
	entered := make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		_, _, err := s.do(ctxA, "k", func() (any, error) {
			close(entered)
			<-ctxA.Done()
			return nil, context.Cause(ctxA)
		})
		errA <- err
	}()
	<-entered

	type outcome struct {
		v   any
		hit bool
		err error
	}
	gotB := make(chan outcome, 1)
	go func() {
		v, hit, err := s.do(context.Background(), "k", func() (any, error) { return "artifact", nil })
		gotB <- outcome{v, hit, err}
	}()
	waitParked(t)
	cancelA(canceledA)

	if err := <-errA; !errors.Is(err, canceledA) {
		t.Fatalf("builder: %v, want its own cancellation", err)
	}
	b := <-gotB
	if b.err != nil || b.v != "artifact" || b.hit {
		t.Fatalf("waiter got (%v, hit=%v, %v), want its own fresh build", b.v, b.hit, b.err)
	}
	if s.Builds() != 2 {
		t.Fatalf("builds=%d, want 2", s.Builds())
	}

	// A live builder's failure is the artifact's, and is shared.
	boom := errors.New("boom")
	release := make(chan struct{})
	entered2 := make(chan struct{})
	go func() {
		s.do(context.Background(), "k2", func() (any, error) {
			close(entered2)
			<-release
			return nil, boom
		})
	}()
	<-entered2
	errC := make(chan error, 1)
	go func() {
		_, _, err := s.do(context.Background(), "k2", func() (any, error) { return "unexpected", nil })
		errC <- err
	}()
	waitParked(t)
	close(release)
	if err := <-errC; !errors.Is(err, boom) {
		t.Fatalf("waiter on a live builder's failure: %v, want boom", err)
	}
	if s.Builds() != 3 {
		t.Fatalf("builds=%d, want 3", s.Builds())
	}
}

// waitParked blocks until a goroutine is parked in Store.do itself (its
// first frame outside the runtime), waiting on another requester's
// in-flight build rather than running a build of its own.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.Split(g, "\n")
			if !strings.Contains(lines[0], "[chan receive") {
				continue
			}
			for _, l := range lines[1:] {
				if !strings.HasPrefix(l, "\t") && !strings.HasPrefix(l, "runtime.") {
					if strings.HasPrefix(l, "rescue/internal/flows.(*Store).do(") {
						return
					}
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no requester parked on the in-flight build")
		}
		runtime.Gosched()
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
