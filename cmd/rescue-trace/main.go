// Command rescue-trace records synthetic benchmark traces to the compact
// binary format and replays traces (from this tool or external producers)
// through the performance simulator.
//
// Usage:
//
//	rescue-trace record -bench gzip -n 1000000 -o gzip.rsct [-timeout D]
//	rescue-trace replay -i gzip.rsct [-rescue] [-warmup N] [-commit N] [-timeout D]
//
// SIGINT/SIGTERM abort the trace stream and exit 130; a -timeout
// deadline exits 124. An interrupted record leaves a truncated file.
package main

import (
	"flag"
	"fmt"
	"os"

	"rescue/internal/cli"
	"rescue/internal/trace"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rescue-trace record|replay [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "gzip", "benchmark to record")
	n := fs.Int64("n", 1_000_000, "instructions")
	out := fs.String("o", "", "output file (required)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none); exceeded = exit 124")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "record: -o required")
		os.Exit(2)
	}
	cli.CheckTimeout(*timeout)
	ctx, stop := cli.FlowContext(*timeout)
	defer stop()
	prof, err := workload.ByName(*bench)
	if err != nil {
		cli.ExitErr(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		cli.ExitErr(err)
	}
	defer f.Close()
	tw, err := trace.Record(&cli.CtxWriter{Ctx: ctx, W: f}, workload.Compile(prof).Gen(), *n)
	if err != nil {
		cli.ExitErr(err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d instructions of %s to %s (%.2f bytes/inst)\n",
		tw.Count(), *bench, *out, float64(st.Size())/float64(tw.Count()))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	rescueMachine := fs.Bool("rescue", false, "simulate the Rescue machine (default baseline)")
	warmup := fs.Int64("warmup", 50_000, "warmup instructions")
	commit := fs.Int64("commit", 500_000, "measured instructions")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none); exceeded = exit 124")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "replay: -i required")
		os.Exit(2)
	}
	cli.CheckTimeout(*timeout)
	ctx, stop := cli.FlowContext(*timeout)
	defer stop()
	f, err := os.Open(*in)
	if err != nil {
		cli.ExitErr(err)
	}
	defer f.Close()
	tr, err := trace.NewReader(&cli.CtxReader{Ctx: ctx, R: f})
	if err != nil {
		cli.ExitErr(err)
	}
	p := uarch.DefaultParams()
	if *rescueMachine {
		p = uarch.RescueParams()
	}
	sim, err := uarch.NewFromSource(p, tr)
	if err != nil {
		cli.ExitErr(err)
	}
	st := sim.Run(*warmup, *commit)
	// A context abort surfaces as the reader's sticky error: report it as
	// an interrupt/deadline, not a decode failure.
	if err := tr.Err(); err != nil {
		cli.ExitErr(err)
	}
	machine := "baseline"
	if *rescueMachine {
		machine = "rescue"
	}
	fmt.Printf("%s: IPC %.3f over %d instructions (%d cycles)\n",
		machine, st.IPC(), st.Committed, st.Cycles)
	if tr.Done() {
		fmt.Println("note: trace exhausted during the run (tail padded with NOPs)")
	}
}
