// Command rescue-dict builds a complete fault dictionary for the Rescue
// design — every collapsed fault's syndrome (set of failing scan bits)
// under the generated test program — and optionally diagnoses an observed
// syndrome against it: the candidate faults and the super-component they
// implicate. This is the test-floor artifact real diagnosis flows use in
// place of per-part re-simulation.
//
// Usage:
//
//	rescue-dict build [-small] [-workers N] [-timeout D] [-progress]
//	                  [-checkpoint path [-resume]]
//	                  [-chaos-cancel-after N] -o dict.csv
//	rescue-dict diagnose [-small] -d dict.csv -bits 12,57,103
//
// Dictionary construction fan-outs across -workers cores (0 = all); the
// dictionary is bit-identical at any worker count. The build is resilient:
// SIGINT/SIGTERM finish in-flight chunks, flush the -checkpoint journal
// (if one was given), print the partial campaign stats, and exit 130;
// rerunning with -resume rehydrates the journaled work and converges
// bit-identically to an uninterrupted build. A -timeout deadline exits 124
// the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rescue/internal/cli"
	"rescue/internal/fault"
	"rescue/internal/flows"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "diagnose":
		diagnose(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rescue-dict build|diagnose [flags]")
	os.Exit(cli.ExitUsage)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	small := fs.Bool("small", false, "use the reduced (2-way) configuration")
	out := fs.String("o", "", "output CSV (required)")
	ff := cli.AddFlowFlags(fs)
	fs.Parse(args)
	ff.Validate()
	if *out == "" {
		cli.Usagef("build: -o required")
	}
	ck := ff.OpenCheckpoint()

	ctx, stop := ff.Context()
	defer stop()

	// The file is written only once the dictionary is complete, so an
	// interrupted build leaves nothing behind.
	res, err := flows.DictBuild(ctx, os.Stdout, flows.DictOpts{
		Small:   *small,
		Workers: ff.Workers,
	}, flows.Env{Ck: ck})
	if err != nil {
		cli.ExitFlow(err, res.Stats, ck)
	}
	if err := os.WriteFile(*out, res.CSV, 0o666); err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("%d/%d faults detected; dictionary written to %s\n",
		res.Detected, res.Faults, *out)
}

func diagnose(args []string) {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	small := fs.Bool("small", false, "use the reduced (2-way) configuration")
	dict := fs.String("d", "", "dictionary CSV from `rescue-dict build` (required)")
	bits := fs.String("bits", "", "comma-separated failing observation indices (required)")
	fs.Parse(args)
	if *dict == "" || *bits == "" {
		cli.Usagef("diagnose: -d and -bits required")
	}
	f, err := os.Open(*dict)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	defer f.Close()
	d, err := fault.ReadCSV(f)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	var obs []int
	for _, p := range strings.Split(*bits, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			cli.Usagef("diagnose: bad -bits entry %q: %v", p, err)
		}
		obs = append(obs, v)
	}
	sys, tp, err := flows.DictSystem(context.Background(), *small, 0, flows.Env{})
	if err != nil {
		if tp != nil {
			cli.ExitFlow(err, tp.Gen.Stats, nil)
		}
		cli.Fatalf("%v", err)
	}
	if len(d.Syndromes) != tp.Universe.CountCollapsed() {
		cli.Fatalf("dictionary has %d rows but the design has %d faults (wrong -small?)",
			len(d.Syndromes), tp.Universe.CountCollapsed())
	}
	cands := d.Lookup(obs)
	fmt.Printf("%d candidate faults for syndrome %v\n", len(cands), obs)
	supers := map[string]int{}
	n := sys.Design.N
	for _, c := range cands {
		fsite := tp.Universe.Collapsed[c]
		comp := n.CompName(n.FaultSiteComp(fsite))
		supers[sys.Design.Grouping[comp]]++
	}
	for s, k := range supers {
		fmt.Printf("  super-component %-10s %d candidates\n", s, k)
	}
	if super, err := sys.Audit.Isolate(obs); err == nil {
		fmt.Printf("single-lookup isolation: %s\n", super)
	} else {
		fmt.Printf("single-lookup isolation: %v\n", err)
	}
}
