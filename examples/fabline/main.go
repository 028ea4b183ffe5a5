// Fab-line triage: the complete test floor for a batch of Rescue chips.
//
// Each incoming die goes through the flow the paper's Section 4 describes
// (with the related-work extensions this repo adds):
//
//  1. BIST (March C-) tests the RAM-like structures — rename-table copies
//     here — independently of the logic (Section 4.4: cycle splitting
//     keeps logic testable even with faulty tables);
//
//  2. conventional scan/ATPG patterns test the core logic, and failing
//     scan bits isolate faults to super-components by a single lookup;
//
//  3. self-healing arrays absorb BTB entry defects at run time;
//
//  4. the fault-map register is programmed (MapOut) and the die is binned
//     by the salvaged configuration's simulated throughput.
//
//     go run ./examples/fabline
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rescue/internal/atpg"
	"rescue/internal/bist"
	"rescue/internal/core"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

const dies = 12

func main() {
	sys, err := core.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		log.Fatal(err)
	}
	tp, err := sys.GenerateTestsFlow(context.Background(), atpg.DefaultGenConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test program ready: %d vectors, %.1f%% coverage\n\n",
		tp.Gen.Vectors, tp.Gen.Coverage*100)
	prof, err := workload.ByName("gzip")
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2005))
	fmt.Printf("%-5s %-34s %-22s %s\n", "die", "defects", "disposition", "bin")
	shipped, scrapped := 0, 0
	for die := 0; die < dies; die++ {
		var defects []string
		var supers []string
		chipkill := false

		// --- random defect mix for this die ---
		// logic defect with p=0.5
		if rng.Intn(2) == 0 {
			for tries := 0; tries < 50; tries++ {
				f := tp.Universe.Collapsed[rng.Intn(len(tp.Universe.Collapsed))]
				if f.Gate < 0 {
					continue
				}
				res := tp.Gen.Sim.Run(f, false)
				if !res.Detected {
					continue
				}
				super, err := sys.Audit.Isolate(res.FailObs)
				if err != nil {
					chipkill = true
					defects = append(defects, "logic(ambiguous)")
					break
				}
				defects = append(defects, "logic->"+super)
				if super == "CHIPKILL" {
					chipkill = true
				} else {
					supers = append(supers, super)
				}
				break
			}
		}
		// rename-table defect with p=1/3: BIST finds it, kill that group
		if rng.Intn(3) == 0 {
			table, _ := bist.NewFaultyRAM(16, 5)
			table.StuckAt(rng.Intn(16), rng.Intn(5), rng.Intn(2) == 0)
			if res := bist.MarchCMinus(table); !res.Pass {
				grp := fmt.Sprintf("FE%d", rng.Intn(2))
				defects = append(defects, "table(BIST)->"+grp)
				supers = append(supers, grp)
			}
		}
		// BTB entry defects with p=1/3: self-healing absorbs them
		btbFrac := 0.0
		if rng.Intn(3) == 0 {
			btbFrac = 0.05
			defects = append(defects, "btb(self-healed)")
		}

		// --- disposition ---
		if chipkill {
			fmt.Printf("%-5d %-34s %-22s %s\n", die, list(defects), "scrap (chipkill)", "-")
			scrapped++
			continue
		}
		degr, err := core.MapOut(supers)
		if err != nil {
			fmt.Printf("%-5d %-34s %-22s %s\n", die, list(defects), "scrap ("+err.Error()+")", "-")
			scrapped++
			continue
		}
		p := uarch.RescueParams()
		p.Degr = degr
		p.BTBFaultFrac = btbFrac
		sim, err := uarch.New(p, prof)
		if err != nil {
			log.Fatal(err)
		}
		ipc := sim.Run(5_000, 40_000).IPC()
		disposition := "ship degraded"
		if len(defects) == 0 {
			disposition = "ship (clean)"
		}
		fmt.Printf("%-5d %-34s %-22s %.2f IPC\n", die, list(defects), disposition, ipc)
		shipped++
	}
	fmt.Printf("\nshipped %d/%d dies; core sparing would have scrapped every defective one\n",
		shipped, dies)
	_ = netlist.NoFault
}

func list(xs []string) string {
	if len(xs) == 0 {
		return "none"
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out += "," + x
	}
	return out
}
