package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rescue/internal/netlist"
)

// journalFor runs a small checkpointed campaign to completion and returns
// the journal path plus the inputs that produced it.
func journalFor(t *testing.T) (string, *Sim, *Universe) {
	t.Helper()
	sim, u := rescueSim(t, 2, 61)
	path := filepath.Join(t.TempDir(), "ck.journal")
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	if _, _, err := camp.RunCheckpoint(context.Background(), NewCheckpoint(path), u.Collapsed[:200]); err != nil {
		t.Fatal(err)
	}
	return path, sim, u
}

// TestOpenCheckpointRefusesExisting pins the no-clobber contract: without
// -resume an existing journal must be refused with guidance, and with
// -resume it must load.
func TestOpenCheckpointRefusesExisting(t *testing.T) {
	path, _, _ := journalFor(t)
	if _, err := OpenCheckpoint(path, false); err == nil {
		t.Fatal("OpenCheckpoint clobbered an existing journal without -resume")
	} else if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("refusal does not mention -resume: %v", err)
	}
	ck, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatalf("OpenCheckpoint with resume failed: %v", err)
	}
	if len(ck.sections) == 0 {
		t.Fatal("resumed journal loaded no sections")
	}
	// A fresh path works without resume and writes nothing until Flush.
	fresh := filepath.Join(t.TempDir(), "fresh.journal")
	if _, err := OpenCheckpoint(fresh, false); err != nil {
		t.Fatalf("fresh OpenCheckpoint failed: %v", err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatal("fresh checkpoint touched the filesystem before any Flush")
	}
}

// TestCheckpointIdentityMismatch: resuming a journal against a run with
// different inputs (fault list, word range, or config) must be refused,
// not silently rehydrated into wrong results.
func TestCheckpointIdentityMismatch(t *testing.T) {
	path, sim, u := journalFor(t)
	cases := []struct {
		name string
		run  func(ck *Checkpoint) error
	}{
		{"different-faults", func(ck *Checkpoint) error {
			camp := NewCampaign(sim, CampaignConfig{Workers: 2})
			_, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:199])
			return err
		}},
		{"different-config", func(ck *Checkpoint) error {
			camp := NewCampaign(sim, CampaignConfig{Workers: 2, DetectOnly: true})
			_, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200])
			return err
		}},
		{"different-words", func(ck *Checkpoint) error {
			camp := NewCampaign(sim, CampaignConfig{Workers: 2})
			_, _, err := camp.RunWordsCheckpoint(context.Background(), ck, u.Collapsed[:200], 0, 1)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.run(ck)
			if err == nil || !strings.Contains(err.Error(), "different run") {
				t.Fatalf("mismatched resume returned %v, want identity-mismatch error", err)
			}
		})
	}
	// The identical run still rehydrates.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(sim, CampaignConfig{Workers: 4})
	_, st, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200])
	if err != nil {
		t.Fatalf("identical resume failed: %v", err)
	}
	if st.Rehydrated != 200 {
		t.Fatalf("identical resume rehydrated %d of 200", st.Rehydrated)
	}
}

// TestCheckpointContentAddressed: in content-addressed mode a journaled
// section is found by identity even when the resuming flow runs campaigns
// the journal never saw — the shape a warm-artifact-cache drain leaves
// behind: early campaigns were served from the cache and never journaled,
// so the cold re-run reaches them first.
func TestCheckpointContentAddressed(t *testing.T) {
	path, sim, u := journalFor(t) // one section: faults[:200]
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ck.ContentAddressed()
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	// A campaign the journal never saw comes first; strict matching would
	// refuse it, content-addressed matching gives it a fresh section.
	_, st, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[200:260])
	if err != nil {
		t.Fatalf("unjournaled campaign failed: %v", err)
	}
	if st.Rehydrated != 0 {
		t.Fatalf("fresh campaign rehydrated %d faults", st.Rehydrated)
	}
	// The journaled campaign still rehydrates fully despite its section no
	// longer being at the cursor position.
	_, st, err = camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200])
	if err != nil {
		t.Fatalf("journaled campaign failed: %v", err)
	}
	if st.Rehydrated != 200 {
		t.Fatalf("journaled campaign rehydrated %d of 200", st.Rehydrated)
	}
	// The reordered journal reloads cleanly and both sections survive.
	ck2, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck2.sections) != 2 {
		t.Fatalf("flushed journal has %d sections, want 2", len(ck2.sections))
	}
}

// TestCheckpointCorruption: tampered journals must be rejected on load —
// a flipped results digest, a truncated body, and an empty file.
func TestCheckpointCorruption(t *testing.T) {
	path, _, _ := journalFor(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("digest-mismatch", func(t *testing.T) {
		re := regexp.MustCompile(`"digest":"([0-9a-f])`)
		m := re.FindSubmatchIndex(raw)
		if m == nil {
			t.Fatal("journal has no digest line to corrupt")
		}
		bad := append([]byte(nil), raw...)
		if bad[m[2]] == 'f' {
			bad[m[2]] = '0'
		} else {
			bad[m[2]] = 'f'
		}
		p := filepath.Join(t.TempDir(), "bad.journal")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Fatalf("corrupted journal loaded: %v", err)
		}
	})

	t.Run("headerless", func(t *testing.T) {
		lines := strings.SplitN(string(raw), "\n", 2)
		if len(lines) != 2 {
			t.Fatal("journal too short")
		}
		p := filepath.Join(t.TempDir(), "headless.journal")
		if err := os.WriteFile(p, []byte(lines[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil {
			t.Fatal("journal without header loaded")
		}
	})

	// A journal from an older format (v1: per-bit Results and MaxFail/Drop
	// keys; v2: a rewritten snapshot whose range lines name no section)
	// must be refused by its header, not misreported as another run's.
	for _, v := range []int{1, 2} {
		name := fmt.Sprintf("v%d", v)
		t.Run(name+"-format", func(t *testing.T) {
			old := bytes.Replace(raw, []byte(`{"v":3,`), []byte(`{"v":`+strconv.Itoa(v)+`,`), 1)
			if bytes.Equal(old, raw) {
				t.Fatal("journal header not found")
			}
			p := filepath.Join(t.TempDir(), name+".journal")
			if err := os.WriteFile(p, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCheckpoint(p); err == nil || !strings.Contains(err.Error(), "format "+name) {
				t.Fatalf("%s journal: got %v, want a format-version refusal", name, err)
			}
		})
	}

	t.Run("empty-file", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "empty.journal")
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil {
			t.Fatal("empty journal loaded")
		}
	})

	t.Run("missing-file", func(t *testing.T) {
		ck, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.journal"))
		if err != nil {
			t.Fatalf("missing journal must start fresh, got %v", err)
		}
		if len(ck.sections) != 0 {
			t.Fatal("missing journal produced sections")
		}
	})
}

// twoSectionJournal runs two checkpointed campaigns against one journal and
// returns its path, the inputs, and the serialized golden results of each
// campaign for byte-identity comparisons.
func twoSectionJournal(t *testing.T) (path string, sim *Sim, u *Universe, want1, want2 []byte) {
	t.Helper()
	sim, u = rescueSim(t, 2, 61)
	path = filepath.Join(t.TempDir(), "two.journal")
	ck := NewCheckpoint(path)
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	res1, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200])
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[200:260])
	if err != nil {
		t.Fatal(err)
	}
	return path, sim, u, mustJSON(t, res1), mustJSON(t, res2)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// journalBlocks splits a journal into its header line and one block of
// lines per section (the section line plus its range lines).
func journalBlocks(t *testing.T, raw []byte) (header string, blocks [][]string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var ln ckLine
		if err := json.Unmarshal([]byte(line), &ln); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch {
		case ln.V != nil:
			header = line
		case ln.ID != nil:
			blocks = append(blocks, []string{line})
		default:
			if len(blocks) == 0 {
				t.Fatalf("range line before any section: %q", line)
			}
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], line)
		}
	}
	if header == "" || len(blocks) == 0 {
		t.Fatalf("journal missing header or sections:\n%s", raw)
	}
	return header, blocks
}

// renumber moves a section block to ordinal n — its section line and every
// range line naming it — and (optionally) mutates its id.
func renumber(t *testing.T, block []string, n int, mutate func(*CampaignKey)) []string {
	t.Helper()
	out := make([]string, len(block))
	for i, line := range block {
		var ln ckLine
		if err := json.Unmarshal([]byte(line), &ln); err != nil || (i == 0) != (ln.ID != nil) {
			t.Fatalf("block line %d is not a section line first, range lines after: %q (%v)", i, line, err)
		}
		ln.Section = &n
		if mutate != nil && ln.ID != nil {
			mutate(ln.ID)
		}
		out[i] = string(mustJSON(t, ln))
	}
	return out
}

// journalBytes joins a header and section blocks back into a journal.
func journalBytes(header string, blocks ...[]string) []byte {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	for _, b := range blocks {
		sb.WriteString(strings.Join(b, "\n") + "\n")
	}
	return []byte(sb.String())
}

func writeJournal(t *testing.T, header string, blocks ...[]string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "edited.journal")
	if err := os.WriteFile(p, journalBytes(header, blocks...), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// resumeBoth replays the two-campaign flow against a loaded journal in
// content-addressed mode and returns each campaign's serialized results
// plus rehydration counts.
func resumeBoth(t *testing.T, path string, sim *Sim, u *Universe) (got1, got2 []byte, re1, re2 int64) {
	t.Helper()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("edited journal failed to load: %v", err)
	}
	ck.ContentAddressed()
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	res1, st1, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200])
	if err != nil {
		t.Fatalf("campaign 1 resume: %v", err)
	}
	res2, st2, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[200:260])
	if err != nil {
		t.Fatalf("campaign 2 resume: %v", err)
	}
	return mustJSON(t, res1), mustJSON(t, res2), st1.Rehydrated, st2.Rehydrated
}

// TestCheckpointFlexibleJournals pins ContentAddressed against journals
// whose physical layout diverged from the flow order: sections reordered
// on disk, a foreign section spliced between the real ones, and a journal
// truncated mid-record (a torn append) or at a record boundary. In every
// case the resume must either restore byte-identical results or fail
// loudly — never merge wrong data quietly.
func TestCheckpointFlexibleJournals(t *testing.T) {
	path, sim, u, want1, want2 := twoSectionJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, blocks := journalBlocks(t, raw)
	if len(blocks) != 2 {
		t.Fatalf("journal has %d sections, want 2", len(blocks))
	}

	t.Run("reordered-sections", func(t *testing.T) {
		// Swap the two section blocks (renumbered so the file itself stays
		// well-formed) — the layout a warm-cache drain leaves behind.
		p := writeJournal(t, header,
			renumber(t, blocks[1], 0, nil),
			renumber(t, blocks[0], 1, nil))

		// Strict mode must refuse: the section at the cursor belongs to the
		// other campaign.
		ck, err := LoadCheckpoint(p)
		if err != nil {
			t.Fatalf("reordered journal failed to load: %v", err)
		}
		camp := NewCampaign(sim, CampaignConfig{Workers: 2})
		if _, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:200]); err == nil ||
			!strings.Contains(err.Error(), "different run") {
			t.Fatalf("strict resume of reordered journal returned %v, want identity-mismatch error", err)
		}

		// Content-addressed mode finds both sections by identity.
		got1, got2, re1, re2 := resumeBoth(t, p, sim, u)
		if re1 != 200 || re2 != 60 {
			t.Fatalf("rehydrated %d/%d, want 200/60", re1, re2)
		}
		if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
			t.Fatal("reordered resume diverged from golden results")
		}
	})

	t.Run("foreign-section-interleaved", func(t *testing.T) {
		// A section journaled by some other run (different fault-list
		// digest) sits between the two real ones. Its records are
		// internally consistent — only the identity says it is not ours —
		// so matching by position would rehydrate the wrong results.
		p := writeJournal(t, header,
			renumber(t, blocks[0], 0, nil),
			renumber(t, blocks[0], 1, func(id *CampaignKey) { id.FaultsDigest = "00000000deadbeef" }),
			renumber(t, blocks[1], 2, nil))

		got1, got2, re1, re2 := resumeBoth(t, p, sim, u)
		if re1 != 200 || re2 != 60 {
			t.Fatalf("rehydrated %d/%d, want 200/60", re1, re2)
		}
		if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
			t.Fatal("resume with foreign section diverged from golden results")
		}
	})

	t.Run("truncated-mid-record", func(t *testing.T) {
		// Cut into the middle of the final record — the shape a crash
		// mid-append leaves. The torn record is dropped, its range is
		// simply re-simulated, and the results are byte-identical to the
		// uninterrupted run. TestCheckpointTornTailResume tries every cut.
		lastStart := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n') + 1
		cut := lastStart + (len(raw)-lastStart)/2
		p := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got1, got2, re1, re2 := resumeBoth(t, p, sim, u)
		if re1 != 200 || re2 >= 60 {
			t.Fatalf("rehydrated %d/%d, want 200 and fewer than 60", re1, re2)
		}
		if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
			t.Fatal("torn-journal resume diverged from golden results")
		}
	})

	t.Run("truncated-at-boundary", func(t *testing.T) {
		// Drop the final record cleanly at its line boundary: the journal
		// still loads, the missing range is simply re-simulated, and the
		// merged results are byte-identical to the untruncated run.
		lastStart := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n') + 1
		p := filepath.Join(t.TempDir(), "short.journal")
		if err := os.WriteFile(p, raw[:lastStart], 0o644); err != nil {
			t.Fatal(err)
		}
		got1, got2, re1, re2 := resumeBoth(t, p, sim, u)
		if re1 != 200 {
			t.Fatalf("campaign 1 rehydrated %d, want 200", re1)
		}
		if re2 >= 60 {
			t.Fatalf("campaign 2 rehydrated %d despite its record being truncated away", re2)
		}
		if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
			t.Fatal("truncated-journal resume diverged from golden results")
		}
	})
}

// TestCheckpointTornTailResume cuts the journal at every byte offset
// strictly inside its last record — what a crash mid-append leaves — both
// in the file as written and with its two sections swapped on disk. Every
// cut must load with each record before it rehydrated, resume with
// journaling on to results byte-identical to the uninterrupted run, and
// leave a file that reloads to a full rehydrate of both campaigns.
func TestCheckpointTornTailResume(t *testing.T) {
	path, sim, u, want1, want2 := twoSectionJournal(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, blocks := journalBlocks(t, raw)
	if len(blocks) != 2 {
		t.Fatalf("journal has %d sections, want 2", len(blocks))
	}
	layouts := []struct {
		name string
		raw  []byte
	}{
		{"as-written", raw},
		{"swapped-sections", journalBytes(header, renumber(t, blocks[1], 0, nil), renumber(t, blocks[0], 1, nil))},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			// The last record's range is what each cut loses; its section
			// line says which campaign owns it (200 faults or 60).
			last := bytes.LastIndexByte(bytes.TrimRight(lay.raw, "\n"), '\n') + 1
			var rec ckLine
			if err := json.Unmarshal(lay.raw[last:], &rec); err != nil || rec.Results == nil {
				t.Fatalf("last line is not a range record: %v", err)
			}
			_, lb := journalBlocks(t, lay.raw)
			var owner ckLine
			if err := json.Unmarshal([]byte(lb[*rec.Section][0]), &owner); err != nil {
				t.Fatal(err)
			}
			want1Re, want2Re := int64(200), int64(60)
			if owner.ID.NFaults == 200 {
				want1Re -= int64(rec.Hi - rec.Lo)
			} else {
				want2Re -= int64(rec.Hi - rec.Lo)
			}
			p := filepath.Join(t.TempDir(), "torn.journal")
			for cut := last + 1; cut < len(lay.raw); cut++ {
				if err := os.WriteFile(p, lay.raw[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				got1, got2, re1, re2 := resumeBoth(t, p, sim, u)
				if re1 != want1Re || re2 != want2Re {
					t.Fatalf("cut at %d: rehydrated %d/%d, want %d/%d", cut, re1, re2, want1Re, want2Re)
				}
				if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
					t.Fatalf("cut at %d: resume diverged from the uninterrupted run", cut)
				}
				got1, got2, re1, re2 = resumeBoth(t, p, sim, u)
				if re1 != 200 || re2 != 60 {
					t.Fatalf("cut at %d: the resumed journal rehydrates %d/%d, want 200/60", cut, re1, re2)
				}
				if !bytes.Equal(got1, want1) || !bytes.Equal(got2, want2) {
					t.Fatalf("cut at %d: the resumed journal rehydrates wrong results", cut)
				}
			}
		})
	}
}

// TestCheckpointConcurrentSectionsResume records two campaigns into one
// content-addressed checkpoint at the same time, the way sweep points
// share a journal: sections bind, chunks record and flushes append from
// both at once. The journal must reload and rehydrate both campaigns
// fully and byte-identically, bound in the opposite order.
func TestCheckpointConcurrentSectionsResume(t *testing.T) {
	simA, uA := rescueSim(t, 2, 61)
	simB, uB := rescueSim(t, 3, 47)
	runs := []struct {
		sim    *Sim
		faults []netlist.Fault
	}{{simA, uA.Collapsed[:300]}, {simB, uB.Collapsed[100:400]}}

	ck := NewCheckpoint(filepath.Join(t.TempDir(), "shared.journal"))
	ck.ContentAddressed()
	want := make([][]Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, sim *Sim, faults []netlist.Fault) {
			defer wg.Done()
			camp := NewCampaign(sim, CampaignConfig{Workers: 2})
			want[i], _, errs[i] = camp.RunCheckpoint(context.Background(), ck, faults)
		}(i, r.sim, r.faults)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}

	re, err := LoadCheckpoint(ck.Path())
	if err != nil {
		t.Fatal(err)
	}
	re.ContentAddressed()
	for i := len(runs) - 1; i >= 0; i-- {
		camp := NewCampaign(runs[i].sim, CampaignConfig{Workers: 2})
		got, st, err := camp.RunCheckpoint(context.Background(), re, runs[i].faults)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rehydrated != int64(len(runs[i].faults)) {
			t.Fatalf("campaign %d rehydrated %d of %d", i, st.Rehydrated, len(runs[i].faults))
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("campaign %d rehydrated results differ from its run", i)
		}
	}
}

// TestCheckpointResultsEncoding pins the journal's reflection-free results
// encoder to json.Marshal byte for byte, on edge cases and on a real
// campaign's syndromes: shard seals and journal digests computed either
// way must agree, and every range line must decode to the same results.
func TestCheckpointResultsEncoding(t *testing.T) {
	sim, u := rescueSim(t, 2, 61)
	real, _, err := NewCampaign(sim, CampaignConfig{Workers: 2}).RunCheckpoint(context.Background(), nil, u.Collapsed[:300])
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]Result{{}, {{}}, {{Detected: true, FailObs: []int{}}},
		{{Detected: true, FailObs: []int{0, 7, 123456}}, {FailObs: nil}}, real}
	for i, rs := range cases {
		if got, want := appendResults(nil, rs), mustJSON(t, rs); !bytes.Equal(got, want) {
			t.Fatalf("case %d: encoded\n  %s\nwant\n  %s", i, got, want)
		}
	}
}

// TestCheckpointAppendFailureSticky: a failed append may leave the file
// ending in a partial line, so the failure is sticky — the campaign that
// hit it reports it, and no later Flush appends anything, even once the
// path is writable again.
func TestCheckpointAppendFailureSticky(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail an append on")
	}
	sim, u := rescueSim(t, 2, 61)
	ck := NewCheckpoint("/dev/full")
	camp := NewCampaign(sim, CampaignConfig{Workers: 2})
	_, _, err := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[:50])
	if err == nil {
		t.Fatal("a campaign whose journal append failed reported success")
	}
	ck.path = filepath.Join(t.TempDir(), "later.journal")
	if _, _, err2 := camp.RunCheckpoint(context.Background(), ck, u.Collapsed[50:100]); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("campaign after a failed append returned %v, want the sticky %v", err2, err)
	}
	if _, err := os.Stat(ck.path); !os.IsNotExist(err) {
		t.Fatalf("a journal whose append failed wrote again (stat: %v)", err)
	}
}
