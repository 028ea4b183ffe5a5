// Package flows holds the shared flow entry points behind the rescue
// commands and the serving daemon: one function per report (Table 3 ATPG,
// fault dictionary, isolation campaign, Figure 9 YAT, Monte Carlo fab
// fleet) that writes exactly the text the corresponding CLI prints, so a
// job served by rescued is byte-identical to a direct command run — and to
// the committed golden files.
//
// Backing the flows is a content-addressed artifact store: expensive
// intermediates (built netlists, generated ATPG test sets, per-node IPC
// tables, fault dictionaries) are keyed by a digest of the inputs that
// determine them — generator, configuration, seed — computed once under
// singleflight, and shared by every subsequent request. Worker count is
// deliberately absent from every key: campaign results are bit-identical
// at any concurrency (pinned by CI's golden checks), so a table built at
// -workers 1 serves a -workers 4 job unchanged.
package flows

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is an in-memory content-addressed artifact cache with singleflight
// builds: the first requester of a key runs the build while concurrent
// requesters for the same key block and share the one result. A failed
// build is not retained, so the next request builds afresh. A build that
// failed because its own requester was cancelled is not shared either:
// each waiter still live builds the artifact itself, so one job's
// cancellation never fails another job that joined its build.
type Store struct {
	mu      sync.Mutex
	entries map[string]*flight

	hits   atomic.Int64
	misses atomic.Int64
	builds atomic.Int64
}

type flight struct {
	done chan struct{}
	val  any
	err  error
	// canceled records that the builder's own ctx was done when its build
	// failed: err is that requester's cancellation, not the artifact's.
	canceled bool
}

// NewStore returns an empty artifact store.
func NewStore() *Store {
	return &Store{entries: map[string]*flight{}}
}

// Hits counts requests served from a completed or in-flight entry.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses counts requests that had to start a build.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Builds counts builds actually executed (== Misses; kept separate so the
// metrics read naturally).
func (s *Store) Builds() int64 { return s.builds.Load() }

// Len reports the number of retained artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// do returns the artifact for key, building it with build on a miss; ctx
// is the requester's context, the one build runs under. hit reports
// whether the value came from the cache (including joining an in-flight
// build — "concurrent identical submissions share one entry"). On build
// error the entry is dropped and the partial value is returned to every
// waiter, except that when the builder's ctx was done, a waiter whose own
// ctx is still live retries and builds the artifact itself.
func (s *Store) do(ctx context.Context, key string, build func() (any, error)) (val any, hit bool, err error) {
	for {
		s.mu.Lock()
		e, ok := s.entries[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		<-e.done
		if e.err != nil && e.canceled && ctx.Err() == nil {
			continue
		}
		s.hits.Add(1)
		return e.val, true, e.err
	}
	e := &flight{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	s.misses.Add(1)
	s.builds.Add(1)
	e.val, e.err = build()
	if e.err != nil {
		e.canceled = ctx.Err() != nil
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
	}
	close(e.done)
	return e.val, false, e.err
}

// digest canonicalizes a key struct into its content address. Key structs
// marshal deterministically (fixed field order, no maps), so equal inputs
// always produce equal digests.
func digest(kind string, key any) string {
	b, err := json.Marshal(key)
	if err != nil {
		// Key structs are plain data; a marshal failure is a programming
		// error worth failing loudly on.
		panic(fmt.Sprintf("flows: cannot digest %s key: %v", kind, err))
	}
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return kind + ":" + hex.EncodeToString(sum[:8])
}
