package fault

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rescue/internal/obs"
)

// Dictionary is a precomputed fault dictionary: for every collapsed fault,
// the set of observation points that fail under the generated test
// program. Real test floors use dictionaries to diagnose returned parts
// without re-simulation; here it also serves as a complete machine-checkable
// record that every fault's syndrome stays inside one super-component.
type Dictionary struct {
	// Syndromes[i] lists the failing observation points of Collapsed[i]
	// (empty = fault undetected by the program).
	Syndromes [][]int
}

// BuildDictionaryFlow simulates every collapsed fault against the pattern
// set across workers (<= 0 = all cores). This is the expensive, exhaustive
// version of the per-fault isolation flow; cost is proportional to faults ×
// affected cones. Fault dropping stays off: a dictionary needs every
// fault's complete syndrome. Cancellation is cooperative, and an optional
// checkpoint journal lets the single big campaign behind the dictionary
// resume at chunk granularity after a kill; the rebuilt dictionary is
// bit-identical to an uninterrupted build at any worker count. On error the
// partial campaign Stats are still returned.
func BuildDictionaryFlow(ctx context.Context, sim *Sim, u *Universe, workers int, ck *Checkpoint) (*Dictionary, Stats, error) {
	defer obs.Span(ctx, "dictionary")()
	camp := NewCampaign(sim, CampaignConfig{Workers: workers})
	results, st, err := camp.RunCheckpoint(ctx, ck, u.Collapsed)
	if err != nil {
		return nil, st, err
	}
	d := &Dictionary{Syndromes: make([][]int, len(u.Collapsed))}
	for i, res := range results {
		obs := append([]int(nil), res.FailObs...)
		sort.Ints(obs)
		d.Syndromes[i] = obs
	}
	return d, st, nil
}

// Detected reports how many faults the dictionary's program detects.
func (d *Dictionary) Detected() int {
	n := 0
	for _, s := range d.Syndromes {
		if len(s) > 0 {
			n++
		}
	}
	return n
}

// Lookup finds the faults whose syndrome is a superset of the observed
// failing bits — the diagnosis candidates for a returned part. Bits are
// matched as sets (tester bit order does not matter).
func (d *Dictionary) Lookup(failObs []int) []int {
	want := map[int]bool{}
	for _, o := range failObs {
		want[o] = true
	}
	var out []int
	for i, syn := range d.Syndromes {
		if len(syn) == 0 || len(syn) < len(want) {
			continue
		}
		have := map[int]bool{}
		for _, o := range syn {
			have[o] = true
		}
		all := true
		for o := range want {
			if !have[o] {
				all = false
				break
			}
		}
		if all {
			out = append(out, i)
		}
	}
	return out
}

// CSV renders the dictionary as "faultIndex,obs;obs;..." lines, the
// format ReadCSV parses.
func (d *Dictionary) CSV() []byte {
	var b []byte
	for i, syn := range d.Syndromes {
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		for j, o := range syn {
			if j > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendInt(b, int64(o), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// ReadCSV parses a dictionary rendered by CSV. Every index and
// observation entry must be a whole decimal integer, and observation
// indices must not be negative.
func ReadCSV(r io.Reader) (*Dictionary, error) {
	d := &Dictionary{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" {
			continue
		}
		idxPart, synPart, ok := strings.Cut(txt, ",")
		if !ok {
			return nil, fmt.Errorf("fault: dictionary line %d: no comma", line)
		}
		idx, err := strconv.Atoi(idxPart)
		if err != nil {
			return nil, fmt.Errorf("fault: dictionary line %d: %v", line, err)
		}
		if idx != len(d.Syndromes) {
			return nil, fmt.Errorf("fault: dictionary line %d: index %d out of order", line, idx)
		}
		var syn []int
		if synPart != "" {
			for _, p := range strings.Split(synPart, ";") {
				o, err := strconv.Atoi(p)
				if err != nil {
					return nil, fmt.Errorf("fault: dictionary line %d: %v", line, err)
				}
				if o < 0 {
					return nil, fmt.Errorf("fault: dictionary line %d: negative observation index %d", line, o)
				}
				syn = append(syn, o)
			}
		}
		d.Syndromes = append(d.Syndromes, syn)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
