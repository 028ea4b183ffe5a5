package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, with the spans it caused. Times
// are seconds since the job's root span began.
type Span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	Dur   float64 `json:"dur_s"`
	Self  float64 `json:"self_s"`
	// Aggregate marks a span that sums many short calls interleaved with
	// its parent's own work (the fault-sim campaign inside ATPG). Its
	// interval is placed at the parent's start; only its length is real.
	Aggregate bool    `json:"aggregate,omitempty"`
	Children  []*Span `json:"children,omitempty"`
}

// tracer records one job's span tree in memory.
type tracer struct {
	origin time.Time
	root   *Span
}

func startTrace(name string) *tracer {
	return &tracer{origin: time.Now(), root: &Span{Name: name}}
}

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.origin).Seconds() }

// add records a child of parent covering [from, to].
func (t *tracer) add(parent *Span, name string, from, to time.Time) *Span {
	s := &Span{Name: name, Start: t.at(from), Dur: to.Sub(from).Seconds()}
	parent.Children = append(parent.Children, s)
	return s
}

// time runs f and records it as a child of parent.
func (t *tracer) time(parent *Span, name string, f func() error) (*Span, error) {
	from := time.Now()
	err := f()
	return t.add(parent, name, from, time.Now()), err
}

// finish closes the root span at end and fills in every self time.
func (t *tracer) finish(end time.Time) *Span {
	t.root.Dur = t.at(end)
	fillSelf(t.root)
	return t.root
}

// fillSelf sets each span's self time: its duration minus the part of its
// interval that the union of its children covers. Children may overlap
// each other (client and daemon clocks interleave) or spill past the
// parent; neither is counted twice or outside the parent.
func fillSelf(s *Span) {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	end := s.Start + s.Dur
	for _, c := range s.Children {
		fillSelf(c)
		lo, hi := max(c.Start, s.Start), min(c.Start+c.Dur, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := 0.0
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		covered += hi - lo
	}
	s.Self = s.Dur - covered
}

// layerTimes sums, over the tree below the root, each span name's total
// and self time.
func layerTimes(root *Span) (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	var walk func(*Span)
	walk = func(s *Span) {
		for _, c := range s.Children {
			total[c.Name] += c.Dur
			self[c.Name] += c.Self
			walk(c)
		}
	}
	walk(root)
	return total, self
}

// attributed is the share of the root span that its layers' self times
// account for.
func attributed(root *Span) float64 {
	if root.Dur <= 0 {
		return 0
	}
	return 1 - root.Self/root.Dur
}

// writeTrees writes one span tree per line to dir/<name>.jsonl.
func writeTrees(dir, name string, trees []*Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range trees {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}
