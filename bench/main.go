// Command bench measures rescued end to end: a job's wall time from
// submit to result, cold and warm, with a separately traced run that
// splits it into per-layer self-times. BENCHMARK.json at the repository
// root names the workloads and metrics; see README.md here for why each
// exists and which layer moves which number.
//
// Run from the repository root, through the wrapper that builds the
// bench and the daemon from the checkout:
//
//	bash bench/run.sh --workload table3-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics; the exit status is non-zero when any output check fails.
//
//	bash bench/run.sh -compare base.jsonl new.jsonl
//
// compares two sets of runs appended with -record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

const (
	specFile = "BENCHMARK.json"
	traceDir = ".bench_build/trace"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the bench reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sample is a metric's value and the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]sample
	notes             []string
	trees             []*Span
}

func newOutcome() *outcome { return &outcome{metrics: map[string]sample{}} }

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = sample{v, n} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// latencyNote records which tail percentile the job latencies support.
func (o *outcome) latencyNote(lat []float64) {
	if p, ok := tailPercentile(len(lat), []float64{50, 90, 99, 99.9}); ok {
		o.note("job latency: n=%d; highest percentile with >=%d samples beyond it: p%g", len(lat), minBeyond, p)
	} else {
		o.note("job latency: n=%d; no percentile has %d samples beyond it", len(lat), minBeyond)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the bench prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result keeps exactly the declared metrics. An end-to-end metric the
// run did not measure is an error; a per-layer metric of a layer the
// workload does not exercise reads 0.
func (o *outcome) result(declared []metricSpec, perLayer bool) (*result, error) {
	r := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
		s, ok := o.metrics[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = metricValue{s.value, m.Unit}
	}
	for name := range o.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not declared in %s", name, specFile)
		}
	}
	return r, nil
}

// record is one run as -record appends it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func run(ctx context.Context, workload string, seed int64, window time.Duration, traced bool) (*outcome, error) {
	switch workload {
	case "table3-cold", "yat-cold":
		w := table3Cold
		if workload == "yat-cold" {
			w = yatCold
		}
		if traced {
			return traceCold(ctx, w, window)
		}
		return runCold(ctx, w, window)
	case "serve-warm-mix":
		return runMix(ctx, seed, window, traced)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func main() {
	workload := flag.String("workload", "", "workload to run (table3-cold, yat-cold, serve-warm-mix)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = replay the workload with layer spans and print per-layer metrics")
	recordPath := flag.String("record", "", "append the run's result as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -record files: -compare BASE NEW")
	flag.Parse()

	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compare {
		os.Exit(runCompare(spec, flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	o, err := run(ctx, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
		name := fmt.Sprintf("%s-seed%d", *workload, *seed)
		if err := writeTrees(traceDir, name, o.trees); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		o.note("span trees: %s/%s.jsonl (%d jobs)", traceDir, name, len(o.trees))
	}
	res, err := o.result(declared, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	fmt.Printf("%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-28s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, o.metrics[name].n)
	}
	for _, p := range o.problems {
		fmt.Println("  FAIL:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{*workload, *seed, *trace, res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
