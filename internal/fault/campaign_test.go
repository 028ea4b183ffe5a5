package fault

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/scan"
)

// mustRun is the test shorthand for an uninterrupted campaign run.
func mustRun(t *testing.T, c *Campaign, faults []netlist.Fault) ([]Result, Stats) {
	t.Helper()
	res, st, err := c.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatalf("campaign run failed: %v", err)
	}
	return res, st
}

// mustDictionary is the test shorthand for an uninterrupted dictionary
// build.
func mustDictionary(t *testing.T, sim *Sim, u *Universe, workers int) *Dictionary {
	t.Helper()
	d, _, err := BuildDictionaryFlow(context.Background(), sim, u, workers, nil)
	if err != nil {
		t.Fatalf("dictionary build failed: %v", err)
	}
	return d
}

// rescueSim builds the RescueDesign small config with a seeded random
// pattern set — a real netlist with skewed propagation regions.
func rescueSim(t testing.TB, words int, seed int64) (*Sim, *Universe) {
	t.Helper()
	d, err := rtl.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scan.Insert(d.N, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSim(c, randomPatterns(c, words, seed)), NewUniverse(d.N)
}

// TestCampaignDeterminism asserts that the campaign engine produces
// bit-identical Result slices (Fails ordering included) at any worker
// count, and that they match the serial Sim path exactly — for both
// isolation mode (full FailObs) and coverage mode (fault dropping).
func TestCampaignDeterminism(t *testing.T) {
	sim, u := rescueSim(t, 4, 2026)
	faults := u.Collapsed
	if testing.Short() {
		faults = faults[:len(faults)/8]
	}

	for _, mode := range []struct {
		name string
		cfg  CampaignConfig
		// serial maxFail equivalent of the campaign mode
		maxFail int
	}{
		{"isolation", CampaignConfig{MaxFail: 0}, 0},
		{"coverage-drop", CampaignConfig{Drop: true}, 1},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ref := make([]Result, len(faults))
			for i, f := range faults {
				ref[i] = sim.Run(f, mode.maxFail)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := mode.cfg
				cfg.Workers = workers
				camp := NewCampaign(sim, cfg)
				got, st := mustRun(t, camp, faults)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], ref[i]) {
						t.Fatalf("workers=%d fault %d (%v): campaign %+v != serial %+v",
							workers, i, faults[i], got[i], ref[i])
					}
				}
				if st.Faults != int64(len(faults)) {
					t.Fatalf("workers=%d: stats.Faults=%d, want %d", workers, st.Faults, len(faults))
				}
			}

			// Resume equivalence: a run interrupted mid-flight and resumed
			// from its checkpoint journal must be bit-identical to the
			// uninterrupted reference at any worker count, including across
			// a worker-count change at the kill point.
			for _, workers := range []int{1, 4} {
				path := filepath.Join(t.TempDir(), "resume.ckpt")
				cancelAt := int64(len(faults) / 2)
				var seen atomic.Int64
				ctx, cancel := context.WithCancel(context.Background())
				campaignSimHook = func(int) {
					if seen.Add(1) == cancelAt {
						cancel()
					}
				}
				cfg := mode.cfg
				cfg.Workers = workers
				camp := NewCampaign(sim, cfg)
				_, _, err := camp.RunCheckpoint(ctx, NewCheckpoint(path), faults)
				campaignSimHook = nil
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("workers=%d: interrupted run returned %v, want context.Canceled", workers, err)
				}
				ck, lerr := LoadCheckpoint(path)
				if lerr != nil {
					t.Fatalf("workers=%d: reload checkpoint: %v", workers, lerr)
				}
				resumeWorkers := 5 - workers // resume at a different count
				cfg.Workers = resumeWorkers
				camp2 := NewCampaign(sim, cfg)
				got, st, err := camp2.RunCheckpoint(context.Background(), ck, faults)
				if err != nil {
					t.Fatalf("workers=%d: resume failed: %v", workers, err)
				}
				if st.Rehydrated == 0 {
					t.Fatalf("workers=%d: resume rehydrated nothing", workers)
				}
				if st.Rehydrated+st.Faults != int64(len(faults)) {
					t.Fatalf("workers=%d: rehydrated %d + simulated %d != %d faults",
						workers, st.Rehydrated, st.Faults, len(faults))
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: resumed results differ from uninterrupted reference", workers)
				}
			}
		})
	}
}

// TestCampaignDropSkipsWords checks the ERASER-style redundancy trim: in
// drop mode a detected fault must not be simulated against later words,
// and the skipped work must be visible in Stats.Dropped.
func TestCampaignDropSkipsWords(t *testing.T) {
	sim, u := rescueSim(t, 6, 7)
	camp := NewCampaign(sim, CampaignConfig{Workers: 2, Drop: true})
	results, st := mustRun(t, camp, u.Collapsed)
	nWords := int64(len(sim.Patterns))
	if st.Words+st.Dropped != int64(len(u.Collapsed))*nWords {
		t.Fatalf("words(%d) + dropped(%d) != faults(%d) × words(%d)",
			st.Words, st.Dropped, len(u.Collapsed), nWords)
	}
	if st.Dropped == 0 {
		t.Fatal("no words dropped despite detected faults and Drop mode")
	}
	detected := int64(0)
	for _, r := range results {
		if r.Detected {
			detected++
		}
	}
	if st.Detected != detected {
		t.Fatalf("stats.Detected=%d, results say %d", st.Detected, detected)
	}
	if st.Events == 0 {
		t.Fatal("stats.Events not counted")
	}
}

// TestCampaignTilingManyWords drives the word-tiled drop-mode path across
// several 64-word windows (70 patterns → two windows per in-flight fault)
// and demands exact agreement with the serial path: detection, full
// Results in isolation mode, and the Words/Dropped accounting identity.
func TestCampaignTilingManyWords(t *testing.T) {
	sim, u := rescueSim(t, 70, 99)
	faults := u.Collapsed
	if testing.Short() {
		faults = faults[:len(faults)/8]
	}
	serialDet := make([]bool, len(faults))
	for i, f := range faults {
		serialDet[i] = sim.Run(f, 1).Detected
	}

	for _, workers := range []int{1, 3} {
		camp := NewCampaign(sim, CampaignConfig{Workers: workers, Drop: true})
		res, st := mustRun(t, camp, faults)
		for i := range res {
			if res[i].Detected != serialDet[i] {
				t.Fatalf("workers=%d fault %d (%v): tiled detected=%v, serial %v",
					workers, i, faults[i], res[i].Detected, serialDet[i])
			}
		}
		nWords := int64(len(sim.Patterns))
		if st.Words+st.Dropped != int64(len(faults))*nWords {
			t.Fatalf("workers=%d: words(%d) + dropped(%d) != faults(%d) × words(%d)",
				workers, st.Words, st.Dropped, len(faults), nWords)
		}
	}

	// Isolation mode (untiled reference inside the same campaign engine)
	// must agree byte-for-byte too; a slice of the universe keeps the
	// uncapped 70-word sweeps affordable.
	isoFaults := faults
	if len(isoFaults) > 2000 {
		isoFaults = isoFaults[:2000]
	}
	ref := make([]Result, len(isoFaults))
	for i, f := range isoFaults {
		ref[i] = sim.Run(f, 0)
	}
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	res, _ := mustRun(t, camp, isoFaults)
	for i := range res {
		if !reflect.DeepEqual(res[i], ref[i]) {
			t.Fatalf("fault %d (%v): campaign %+v != serial %+v", i, isoFaults[i], res[i], ref[i])
		}
	}
}

// TestCampaignRunWords pins the word-restricted campaign (the ATPG
// dropWord path) against serial RunWord.
func TestCampaignRunWords(t *testing.T) {
	sim, u := rescueSim(t, 5, 99)
	camp := NewCampaign(sim, CampaignConfig{Workers: 4, MaxFail: 1})
	for w := 0; w < len(sim.Patterns); w++ {
		got, _, err := camp.RunWordsCheckpoint(context.Background(), nil, u.Collapsed, w, w+1)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range u.Collapsed {
			want := sim.RunWord(f, w, 1)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("word %d fault %d: campaign %+v != serial %+v", w, i, got[i], want)
			}
		}
	}
}

// TestCampaignReuse verifies per-worker scratch reuse across runs: a
// second run over the same campaign must match a fresh serial pass.
func TestCampaignReuse(t *testing.T) {
	sim, u := rescueSim(t, 3, 5)
	camp := NewCampaign(sim, CampaignConfig{Workers: 3})
	first, _ := mustRun(t, camp, u.Collapsed)
	second, _ := mustRun(t, camp, u.Collapsed)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("campaign results changed across reuse of the same campaign")
	}
}

// TestCampaignEmptyAndTiny covers degenerate shards: no faults, and fewer
// faults than workers.
func TestCampaignEmptyAndTiny(t *testing.T) {
	sim, u := rescueSim(t, 2, 3)
	camp := NewCampaign(sim, CampaignConfig{Workers: 8})
	res, st := mustRun(t, camp, nil)
	if len(res) != 0 || st.Faults != 0 {
		t.Fatalf("empty run: %d results, %d faults", len(res), st.Faults)
	}
	res, _ = mustRun(t, camp, u.Collapsed[:3])
	for i, f := range u.Collapsed[:3] {
		want := sim.Run(f, 0)
		if !reflect.DeepEqual(res[i], want) {
			t.Fatalf("tiny run fault %d: %+v != %+v", i, res[i], want)
		}
	}
}

// TestCampaignOverlapGuard provokes the overlap hazard the in-use guard
// exists for: a second run while the first is mid-flight must be rejected
// with ErrCampaignBusy (overlapping runs would share per-worker scratch
// state and corrupt both silently), and the guard must release once the
// first run drains.
func TestCampaignOverlapGuard(t *testing.T) {
	sim, u := rescueSim(t, 2, 17)
	faults := u.Collapsed[:64]
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	campaignSimHook = func(int) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { campaignSimHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, _, err := camp.RunCheckpoint(context.Background(), nil, faults)
		done <- err
	}()
	<-entered // first run is simulating
	if _, _, err := camp.RunCheckpoint(context.Background(), nil, faults); !errors.Is(err, ErrCampaignBusy) {
		t.Fatalf("overlapping run returned %v, want ErrCampaignBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	res, _, err := camp.RunCheckpoint(context.Background(), nil, faults)
	if err != nil {
		t.Fatalf("run after guard release failed: %v", err)
	}
	for i, f := range faults {
		if want := sim.Run(f, 0); !reflect.DeepEqual(res[i], want) {
			t.Fatalf("post-overlap run fault %d differs from serial", i)
		}
	}
}

// TestChunkQueueCoversAll checks that the work-stealing queue hands out
// every index exactly once, own-segment-first, steals included.
func TestChunkQueueCoversAll(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{100, 4}, {5, 8}, {1, 1}, {1000, 3}, {64, 2}, {20000, 3},
	} {
		q := newChunkQueue(tc.n, tc.workers)
		seen := make([]int, tc.n)
		for w := 0; w < tc.workers; w++ {
			for {
				lo, hi, ok := q.next(w)
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d handed out %d times",
					tc.n, tc.workers, i, c)
			}
		}
	}
}

// TestDictionaryWorkersDeterminism: the parallel dictionary must be
// identical at every worker count.
func TestDictionaryWorkersDeterminism(t *testing.T) {
	sim, u := rescueSim(t, 4, 11)
	ref := mustDictionary(t, sim, u, 0)
	for _, w := range []int{1, 2, 8} {
		d, st, err := BuildDictionaryFlow(context.Background(), sim, u, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Syndromes, ref.Syndromes) {
			t.Fatalf("workers=%d: dictionary differs from reference", w)
		}
		if st.Dropped != 0 {
			t.Fatalf("workers=%d: dictionary build dropped %d word-sims (needs full syndromes)", w, st.Dropped)
		}
	}
}
