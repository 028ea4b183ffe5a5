package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// floors are absolute regression floors for metrics whose value is small
// enough that a share of it is within timer noise. BENCHMARK.json has no
// field for them, so only -compare applies them.
var floors = map[string]float64{"setup_s": 0.25}

const compareUsage = `usage: bench -compare BASE.jsonl NEW.jsonl
  each file holds runs appended with -record`

// readRecords reads the untraced runs of a -record file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 && r.Result != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// values collects one metric of one workload across runs.
func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints, for every workload and end-to-end metric, whether
// the NEW runs regressed against the BASE runs by the metric's bound in
// BENCHMARK.json. It returns the exit status: 1 when anything regressed.
func runCompare(spec *benchSpec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, compareUsage)
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-16s %-22s %4s %12s %7s %4s %12s %7s %6s  %s\n",
		"workload", "metric", "n", "base med", "spread", "n", "new med", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(base, w.Name, m.Name), values(cand, w.Name, m.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			bd := bound{rel: m.Bound, floor: floors[m.Name], lowerBetter: m.Better == "lower"}
			v := bd.judge(a, b)
			counts[v]++
			fmt.Printf("%-16s %-22s %4d %12.6g %6.1f%% %4d %12.6g %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(a), median(a), spread(a)*100, len(b), median(b), spread(b)*100, m.Bound*100, v)
		}
	}
	fmt.Printf("%d unchanged, %d regressed, %d unresolved\n", counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
