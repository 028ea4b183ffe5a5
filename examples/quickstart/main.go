// Quickstart: the whole Rescue flow on one page.
//
// Build the ICI-transformed pipeline, generate scan tests, inject a random
// fault, isolate it from its failing scan bits with a single lookup, map
// out the faulty super-component, and measure the degraded core's
// performance — the paper's Sections 2-6 end to end.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/netlist"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

func main() {
	// 1. Build the Rescue design (reduced 2-way config for speed) and
	//    verify intra-cycle logic independence.
	sys, err := core.Build(rtl.Small(), rtl.RescueDesign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d gates, %d scan cells, %d super-components\n",
		sys.Design.N.Name, sys.Design.N.NumGates(), sys.Chain.Cells(),
		len(sys.Design.SuperComponents()))
	if !sys.Audit.OK() {
		log.Fatalf("ICI audit failed: %d violations", len(sys.Audit.Violations))
	}
	fmt.Println("ICI audit: every scan bit observes exactly one super-component")

	// 2. Generate scan tests with conventional ATPG.
	tp, err := sys.GenerateTestsFlow(context.Background(), atpg.DefaultGenConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATPG: %d vectors, %.1f%% stuck-at coverage, %d tester cycles\n",
		tp.Gen.Vectors, tp.Gen.Coverage*100, tp.Gen.Cycles)

	// 3. Pretend the fab delivered a chip with one random defect.
	rng := rand.New(rand.NewSource(99))
	var f netlist.Fault
	var truth string
	for {
		f = tp.Universe.Collapsed[rng.Intn(len(tp.Universe.Collapsed))]
		if f.Gate < 0 {
			continue // FF faults are scan cells: chipkill, skip for the demo
		}
		comp := sys.Design.N.CompName(sys.Design.N.FaultSiteComp(f))
		truth = sys.Design.Grouping[comp]
		if truth != "CHIPKILL" {
			break
		}
	}
	fmt.Printf("\ninjected defect: %v (ground truth: %s)\n", f, truth)

	// 4. Apply the test program; isolate from the failing scan bits.
	res := tp.Gen.Sim.Run(f, false)
	if !res.Detected {
		log.Fatal("fault not detected (rare untestable site; rerun with another seed)")
	}
	super, err := sys.Audit.Isolate(res.FailObs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isolated: %d failing scan bits -> super-component %s\n",
		len(res.FailObs), super)
	if super != truth {
		log.Fatalf("isolation mismatch: got %s want %s", super, truth)
	}

	// 5. Map out the faulty component (blow the fault-map fuses)...
	degr, err := core.MapOut([]string{super})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault map: %v\n", degr)

	// 6. ...and measure the salvaged core's throughput.
	prof, err := workload.ByName("gzip")
	if err != nil {
		log.Fatal(err)
	}
	pFull := uarch.RescueParams()
	full, err := uarch.New(pFull, prof)
	if err != nil {
		log.Fatal(err)
	}
	pDegr := uarch.RescueParams()
	pDegr.Degr = degr
	degraded, err := uarch.New(pDegr, prof)
	if err != nil {
		log.Fatal(err)
	}
	fi := full.Run(20_000, 200_000).IPC()
	di := degraded.Run(20_000, 200_000).IPC()
	fmt.Printf("\ngzip IPC: %.3f fault-free -> %.3f degraded (%.1f%% loss)\n",
		fi, di, (1-di/fi)*100)
	fmt.Println("core salvaged: without Rescue this chip would be discarded")
}
