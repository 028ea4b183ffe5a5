// Package diffcheck is the differential verification harness: it generates
// seeded random scan circuits and cross-checks every layer of the fault
// flow against independent implementations and metamorphic properties.
//
// Per seed it asserts:
//
//	P1  the event-driven simulator (fault.Sim) produces bit-identical
//	    Results — Detected and FailObs — to the brute-force oracle
//	    (fault.Oracle) on every uncollapsed fault;
//	P2  fault.Campaign at several worker counts reproduces the serial
//	    results exactly, and detect-only (fault-dropping) runs agree;
//	P3  a campaign killed mid-run by the chaos harness and resumed from
//	    its checkpoint journal (at a different worker count) equals an
//	    uninterrupted run;
//	P4  ICI-style function-preserving transforms (gate privatization,
//	    buffer insertion) leave the circuit functionally equivalent;
//	P5  PODEM test cubes actually detect their target fault under the
//	    oracle with all unassigned positions filled with zeros;
//	P6  union-of-failing-bits isolation is sound: with k random faults
//	    injected at once, every super-component the diagnosis reports
//	    contains an injected fault, or the die is flagged undiagnosable
//	    (chipkill) — never a confident misdiagnosis;
//	P7  cone clipping is invisible: the default cone-clipped engine, a
//	    forced full-walk engine (threshold 0), and a threshold-2 engine
//	    where most cones overflow back to the full walk all produce
//	    byte-identical full Results and agree on detect-only detection,
//	    for every uncollapsed fault;
//	P8  PODEM's Untestable verdicts are true redundancies: on circuits with
//	    at most exhaustiveMaxControls primary inputs plus flip-flops, PODEM
//	    runs on every collapsed fault and each fault it calls untestable
//	    must go undetected by the oracle over all 2^(PI+FF) patterns.
//
// A seed fully names a circuit and stimuli, so any reported failure is
// replayable with `rescue-diffcheck -seed N` and shrinkable to a minimal
// configuration with -dump.
package diffcheck

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"rescue/internal/atpg"
	"rescue/internal/fab"
	"rescue/internal/fault"
	"rescue/internal/ici"
	"rescue/internal/netlist"
	"rescue/internal/scan"
)

// Options tunes how much work each property does per seed.
type Options struct {
	// Workers lists the campaign worker counts cross-checked against the
	// serial reference (default 1, 2, 8).
	Workers []int
	// Transforms is the number of function-preserving edits P4 applies
	// (default 6).
	Transforms int
	// EquivCycles is the number of 64-lane random cycles P4 simulates
	// (default 8).
	EquivCycles int
	// ATPGFaults bounds how many detected PODEM cubes P5 re-checks under
	// the oracle (default 8).
	ATPGFaults int
	// MaxBacktracks is the PODEM search budget (default 50).
	MaxBacktracks int
	// SkipCheckpoint disables P3, which arms the process-wide chaos
	// budget — required when the caller owns that global (e.g. tests
	// exercising the chaos harness directly).
	SkipCheckpoint bool
}

func (o Options) withDefaults() Options {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 8}
	}
	if o.Transforms == 0 {
		o.Transforms = 6
	}
	if o.EquivCycles == 0 {
		o.EquivCycles = 8
	}
	if o.ATPGFaults == 0 {
		o.ATPGFaults = 8
	}
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 50
	}
	return o
}

// splitmix64, the same stepping the generator uses, so stimuli are as
// reproducible as the circuits.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ConfigForSeed maps a seed to generator knobs, spreading the bits across
// the dimensions so consecutive seeds differ in shape, not just content.
func ConfigForSeed(seed uint64) netlist.RandomConfig {
	return netlist.RandomConfig{
		Seed:     seed,
		Gates:    1 + int(seed%97),
		FFs:      1 + int((seed>>8)%11),
		Inputs:   1 + int((seed>>16)%7),
		Outputs:  1 + int((seed>>24)%5),
		MaxFanIn: 2 + int((seed>>32)%5),
		Comps:    1 + int((seed>>40)%6),
	}
}

// CheckSeed runs every property for one seed.
func CheckSeed(ctx context.Context, seed uint64, opt Options) error {
	return CheckConfig(ctx, ConfigForSeed(seed), opt)
}

// CheckConfig generates the circuit named by cfg and runs the property
// set, returning the first violation (nil when all properties hold).
func CheckConfig(ctx context.Context, cfg netlist.RandomConfig, opt Options) error {
	opt = opt.withDefaults()
	seed := cfg.Seed

	n := netlist.Random(cfg)
	if err := n.Validate(); err != nil {
		return fmt.Errorf("P0 generator: invalid netlist: %w", err)
	}
	c, err := scan.Insert(n, 1+int(seed%3))
	if err != nil {
		return fmt.Errorf("P0 generator: scan insert: %w", err)
	}

	r := rng{s: seed ^ 0x6a09e667f3bcc909}
	pats := make([]*scan.Pattern, 0, 4)
	for w := 0; w < 3; w++ {
		p := c.NewPattern(64)
		for i := range p.FFVals {
			p.FFVals[i] = r.next()
		}
		for i := range p.PIVals {
			p.PIVals[i] = r.next()
		}
		pats = append(pats, p)
	}
	short := c.NewPattern(1 + int(r.next()%63))
	for i := range short.FFVals {
		short.FFVals[i] = r.next()
	}
	for i := range short.PIVals {
		short.PIVals[i] = r.next()
	}
	pats = append(pats, short)

	sim := fault.NewSim(c, pats)
	oracle := fault.NewOracle(c, pats)
	u := fault.NewUniverse(n)

	// P1: engine vs oracle, full Results, every uncollapsed fault.
	serial := make([]fault.Result, len(u.All))
	for i, f := range u.All {
		fast := sim.Run(f, false)
		slow := oracle.Run(f, false)
		if !reflect.DeepEqual(fast, slow) {
			return fmt.Errorf("P1 oracle: fault %v:\n  sim    %+v\n  oracle %+v", f, fast, slow)
		}
		serial[i] = fast
	}
	for _, f := range u.Collapsed {
		if fast, slow := sim.Run(f, true), oracle.Run(f, true); fast.Detected != slow.Detected {
			return fmt.Errorf("P1 oracle: fault %v detect-only: sim detected=%v oracle=%v", f, fast.Detected, slow.Detected)
		}
	}

	// P2: campaign at every worker count == serial, bit for bit.
	for _, w := range opt.Workers {
		camp := fault.NewCampaign(sim, fault.CampaignConfig{Workers: w})
		res, _, err := camp.RunCheckpoint(ctx, nil, u.All)
		if err != nil {
			return fmt.Errorf("P2 campaign workers=%d: %w", w, err)
		}
		for i := range serial {
			if !reflect.DeepEqual(res[i], serial[i]) {
				return fmt.Errorf("P2 campaign workers=%d: fault %v (index %d):\n  campaign %+v\n  serial   %+v",
					w, u.All[i], i, res[i], serial[i])
			}
		}
		drop := fault.NewCampaign(sim, fault.CampaignConfig{Workers: w, DetectOnly: true})
		dres, _, err := drop.RunCheckpoint(ctx, nil, u.All)
		if err != nil {
			return fmt.Errorf("P2 campaign workers=%d drop: %w", w, err)
		}
		for i := range serial {
			if dres[i].Detected != serial[i].Detected {
				return fmt.Errorf("P2 campaign workers=%d drop: fault %v detected=%v, serial %v",
					w, u.All[i], dres[i].Detected, serial[i].Detected)
			}
		}
	}

	// P7: the cone-clipped walk is an invisible optimization. Three
	// engines over the same chain and patterns: the default build (serial
	// above, cones at DefaultConeThreshold), a forced full walk
	// (threshold 0, the reference algorithm), and a threshold-2 build
	// that drives most nets through the overflow fallback so clipped and
	// full walks interleave within one engine. Full Results must be
	// byte-identical and detect-only detection must agree everywhere.
	fullSim := fault.NewSimCone(c, pats, 0)
	lowSim := fault.NewSimCone(c, pats, 2)
	for i, f := range u.All {
		if got := fullSim.Run(f, false); !reflect.DeepEqual(got, serial[i]) {
			return fmt.Errorf("P7 cone: fault %v:\n  full-walk %+v\n  clipped   %+v", f, got, serial[i])
		}
		if got := lowSim.Run(f, false); !reflect.DeepEqual(got, serial[i]) {
			return fmt.Errorf("P7 cone: fault %v:\n  threshold-2 %+v\n  clipped     %+v", f, got, serial[i])
		}
	}
	for _, f := range u.Collapsed {
		full, low, def := fullSim.Run(f, true), lowSim.Run(f, true), sim.Run(f, true)
		if full.Detected != def.Detected || low.Detected != def.Detected {
			return fmt.Errorf("P7 cone: fault %v detect-only: clipped=%v full-walk=%v threshold-2=%v",
				f, def.Detected, full.Detected, low.Detected)
		}
	}

	// P3: chaos kill + checkpoint resume == uninterrupted.
	if !opt.SkipCheckpoint {
		if err := checkKillResume(ctx, sim, u.All, serial, opt); err != nil {
			return err
		}
	}

	// P4: function-preserving transforms keep the circuit equivalent.
	tn := netlist.EquivTransform(n, seed, opt.Transforms)
	if err := tn.Validate(); err != nil {
		return fmt.Errorf("P4 transform: invalid netlist: %w", err)
	}
	if err := netlist.FunctionallyEquivalent(n, tn, opt.EquivCycles, seed); err != nil {
		return fmt.Errorf("P4 transform: %w", err)
	}

	// P5: PODEM cubes detect their target fault under the oracle.
	// P8: on circuits narrow enough to enumerate, every Untestable verdict
	// is a true redundancy — no PI/FF pattern at all detects the fault.
	narrow := len(n.Inputs)+n.NumFFs() <= exhaustiveMaxControls
	var exhaustive *fault.Oracle // built on the first Untestable verdict
	tried := 0
	for _, f := range u.Collapsed {
		if tried >= opt.ATPGFaults && !narrow {
			break
		}
		cube, res := atpg.Podem(n, f, opt.MaxBacktracks)
		switch {
		case res == atpg.Untestable && narrow:
			if exhaustive == nil {
				exhaustive = fault.NewOracle(c, exhaustivePatterns(c))
			}
			if exhaustive.Run(f, true).Detected {
				return fmt.Errorf("P8 redundancy: PODEM calls fault %v untestable, but exhaustive patterns detect it at obs %v",
					f, exhaustive.Run(f, false).FailObs)
			}
		case res == atpg.Detected && tried < opt.ATPGFaults:
			tried++
			p := c.NewPattern(1)
			cube.Apply(p, 0, nil) // zero-fill the don't-cares: a real test must survive any fill
			if !fault.NewOracle(c, []*scan.Pattern{p}).Run(f, true).Detected {
				return fmt.Errorf("P5 atpg: PODEM cube for fault %v does not detect it under the oracle (cube PI=%v FF=%v)",
					f, cube.PI, cube.FF)
			}
		}
	}

	// P6: multi-fault isolation soundness. Inject k simultaneous faults,
	// union their failing bits (exact under ICI: one capture cycle, so a
	// fault only reaches observation points inside its own cone), diagnose
	// with the same machinery the fab flow uses, and demand that every
	// implicated component really hosts an injected fault. Random circuits
	// routinely violate ICI; those bits must surface as ambiguous
	// (chipkill), never as a confident wrong answer. Scan-cell faults are
	// the chain flush's job, not diagnosis's.
	audit := ici.Audit(n, nil)
	pr := rng{s: seed ^ 0x517cc1b727220a95}
	k := 1 + int(pr.next()%3)
	idxs := make([]int, k)
	injected := make([]netlist.Fault, k)
	for i := range idxs {
		idxs[i] = int(pr.next() % uint64(len(u.All)))
		injected[i] = u.All[idxs[i]]
	}
	if !fab.ChainFail(injected) {
		var obs []int
		seen := map[int]bool{}
		for _, i := range idxs {
			if !serial[i].Detected {
				continue
			}
			for _, oi := range serial[i].FailObs {
				if !seen[oi] {
					seen[oi] = true
					obs = append(obs, oi)
				}
			}
		}
		if supers, ambiguous := fab.Diagnose(audit, obs); !ambiguous {
			injComp := map[string]bool{}
			for _, f := range injected {
				injComp[n.CompName(n.FaultSiteComp(f))] = true
			}
			for _, s := range supers {
				if !injComp[s] {
					return fmt.Errorf("P6 isolate: faults %v (comps %v) diagnosed as %v: %q hosts no injected fault",
						injected, injComp, supers, s)
				}
			}
		}
	}

	return nil
}

// exhaustiveMaxControls is the widest circuit (primary inputs plus
// flip-flops) P8 enumerates: 2^16 patterns, 1024 pattern words.
const exhaustiveMaxControls = 16

// exhaustivePatterns returns every PI/FF assignment of the chain's
// netlist, 64 to a word: lane bit i of pattern index v drives the i-th
// control (primary inputs first, then scan cells).
func exhaustivePatterns(c *scan.Chain) []*scan.Pattern {
	nPI := len(c.N.Inputs)
	total := 1 << uint(nPI+c.N.NumFFs())
	pats := make([]*scan.Pattern, 0, (total+63)/64)
	for base := 0; base < total; base += 64 {
		p := c.NewPattern(min(64, total-base))
		for lane := 0; lane < p.Lanes; lane++ {
			v := base + lane
			for i := range p.PIVals {
				p.PIVals[i] |= uint64(v>>uint(i)&1) << uint(lane)
			}
			for i := range p.FFVals {
				p.FFVals[i] |= uint64(v>>uint(nPI+i)&1) << uint(lane)
			}
		}
		pats = append(pats, p)
	}
	return pats
}

// checkKillResume arms the chaos budget so a checkpointed campaign is
// interrupted roughly halfway, then resumes it from the journal at a
// different worker count and demands bit-identical results.
func checkKillResume(ctx context.Context, sim *fault.Sim, faults []netlist.Fault, serial []fault.Result, opt Options) error {
	dir, err := os.MkdirTemp("", "diffcheck-ck-")
	if err != nil {
		return fmt.Errorf("P3 resume: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "campaign.ck")

	defer fault.ChaosCancelAfterSims(0)
	fault.ChaosCancelAfterSims(int64(len(faults)/2 + 1))
	first := fault.NewCampaign(sim, fault.CampaignConfig{Workers: opt.Workers[0]})
	_, _, err = first.RunCheckpoint(ctx, fault.NewCheckpoint(path), faults)
	fault.ChaosCancelAfterSims(0)
	if err != nil && !fault.Interrupted(err) {
		return fmt.Errorf("P3 resume: interrupted run failed hard: %w", err)
	}

	ck, err := fault.LoadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("P3 resume: reload journal: %w", err)
	}
	resumeWorkers := opt.Workers[len(opt.Workers)-1]
	second := fault.NewCampaign(sim, fault.CampaignConfig{Workers: resumeWorkers})
	res, st, err := second.RunCheckpoint(ctx, ck, faults)
	if err != nil {
		return fmt.Errorf("P3 resume: resumed run: %w", err)
	}
	for i := range serial {
		if !reflect.DeepEqual(res[i], serial[i]) {
			return fmt.Errorf("P3 resume: fault %v (index %d, %d rehydrated):\n  resumed %+v\n  serial  %+v",
				faults[i], i, st.Rehydrated, res[i], serial[i])
		}
	}
	return nil
}
