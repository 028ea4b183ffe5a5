// Yield planning: when is Rescue worth its area?
//
// A product architect wants to know, for each upcoming technology node and
// core-growth plan, whether to ship plain cores, core sparing, or Rescue.
// This example sweeps both PWP-stagnation scenarios of Figure 9 on a small
// benchmark subset and prints the winning strategy per scenario.
//
//	go run ./examples/yieldplan
package main

import (
	"context"
	"fmt"
	"log"

	"rescue/internal/area"
	"rescue/internal/core"
)

func main() {
	benches := []string{"gzip", "swim", "mcf"}
	fmt.Println("building per-node degraded-performance models (3 benchmarks x 65 configs)...")
	models := map[int]*core.PerfModel{}
	for _, node := range area.Nodes() {
		pm, err := core.BuildPerfModelFlow(context.Background(), node, benches, 5_000, 40_000, 0)
		if err != nil {
			log.Fatal(err)
		}
		models[node.NodeNM] = pm
	}

	for _, stagnate := range []int{90, 65} {
		rows, err := core.YATStudy(area.Node(stagnate), models)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== PWP stagnates at %dnm ===\n", stagnate)
		fmt.Printf("%5s %7s %6s %8s %8s %8s   %s\n",
			"node", "growth", "cores", "none", "+CS", "+Rescue", "recommendation")
		for _, r := range rows {
			rec := "plain cores fine"
			switch {
			case r.RelRescue > r.RelCS*1.03:
				rec = "ship Rescue"
			case r.RelCS > r.RelNone*1.03:
				rec = "core sparing suffices"
			}
			fmt.Printf("%4dnm %6.0f%% %6d %8.3f %8.3f %8.3f   %s\n",
				r.NodeNM, r.Growth*100, r.Cores, r.RelNone, r.RelCS, r.RelRescue, rec)
		}
	}
	fmt.Println()
	fmt.Println("relative YAT = chip YAT / (cores x fault-free IPC), 3-benchmark average")
}
