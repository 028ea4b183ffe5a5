package core

import (
	"context"
	"math/rand"
	"slices"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/obs"
)

// IsolationReport is the outcome of the Section 6.1 campaign: randomly
// chosen faults per pipeline stage, each simulated against the generated
// scan patterns; its failing scan bits are mapped through the single-lookup
// isolation table and checked against the ground-truth fault site.
type IsolationReport struct {
	Requested  int
	Undetected int // sampled faults no pattern detects (excluded, resampled)
	Isolated   int // failing bits implicate exactly the faulty super-component
	Wrong      int // implicated super differs from the ground truth
	Ambiguous  int // failing bits span multiple super-components
	PerStage   map[string]StageIsolation
	// Stats records the fault-simulation campaign work behind the report.
	Stats fault.Stats
}

// StageIsolation is the per-stage breakdown.
type StageIsolation struct {
	Sampled, Isolated, Wrong, Ambiguous int
}

// Stages returns the six stages the paper samples (register read,
// writeback and commit are excluded: no significant logic beyond RAM
// tables).
func Stages() []string {
	return []string{"fetch", "decode", "rename", "issue", "execute", "memory"}
}

// IsolateCampaignFlow samples perStage detectable gate faults from each
// listed stage (FF faults are scan cells — chipkill by construction — and
// chipkill components are excluded), runs full fault simulation for each,
// and verifies isolation. It mirrors the paper's 6000-fault TetraMax
// campaign.
//
// Simulation is sharded across workers (<= 0 = all cores) with fault
// dropping off — isolation needs every failing observation point. Faults
// are batch-simulated in sampling order and the report walk replays the
// serial logic exactly, so the outcome is identical at any worker count.
//
// Cancellation is cooperative and an optional campaign checkpoint journal
// makes the run resumable: the sampling sequence is fully determined by the
// seed, so a killed run's journaled batches rehydrate on resume and the
// report converges bit-identically to an uninterrupted run. On interrupt
// the partial report — carrying the campaign Stats so far — is returned
// alongside the error.
func (s *System) IsolateCampaignFlow(ctx context.Context, tp *TestProgram, perStage int, stages []string, seed int64, workers int, ck *fault.Checkpoint) (IsolationReport, error) {
	defer obs.Span(ctx, "isolate_campaign")()
	rng := rand.New(rand.NewSource(seed))
	n := s.Design.N
	rep := IsolationReport{PerStage: map[string]StageIsolation{}}

	// candidate faults per stage: gate faults in non-chipkill components
	byStage := map[string][]netlist.Fault{}
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			continue
		}
		comp := n.CompName(n.FaultSiteComp(f))
		super := s.Design.Grouping[comp]
		if super == "CHIPKILL" {
			continue
		}
		stage := s.Design.StageOfComp[comp]
		byStage[stage] = append(byStage[stage], f)
	}

	camp := fault.NewCampaign(tp.Gen.Sim, fault.CampaignConfig{Workers: workers})
	for _, stage := range stages {
		cands := byStage[stage]
		if len(cands) == 0 {
			continue
		}
		st := rep.PerStage[stage]
		// sample without replacement
		perm := rng.Perm(len(cands))
		// Simulate candidates in permutation order, in batches sized by how
		// many detectable faults are still needed (plus slack for the
		// undetectable ones that get resampled), ahead of the serial walk.
		results := make([]fault.Result, 0, perStage)
		simmed := 0
		taken := 0
		for pi := 0; pi < len(perm) && taken < perStage; pi++ {
			if pi >= simmed {
				need := perStage - taken
				batch := need + need/4 + 16
				if batch > len(perm)-simmed {
					batch = len(perm) - simmed
				}
				faults := make([]netlist.Fault, batch)
				for k := 0; k < batch; k++ {
					faults[k] = cands[perm[simmed+k]]
				}
				res, cst, err := camp.RunCheckpoint(ctx, ck, faults)
				rep.Stats.Add(cst)
				if err != nil {
					rep.PerStage[stage] = st
					return rep, err
				}
				results = append(results, res...)
				simmed += batch
			}
			f := cands[perm[pi]]
			res := results[pi]
			rep.Requested++
			if !res.Detected {
				rep.Undetected++
				continue // resample: the paper inserts detectable faults
			}
			taken++
			st.Sampled++
			supers := s.Audit.IsolateEach(res.FailObs)
			truth := s.Design.Grouping[n.CompName(n.FaultSiteComp(f))]
			switch {
			case len(supers) == 1 && supers[0] == truth:
				rep.Isolated++
				st.Isolated++
			case len(supers) == 1:
				rep.Wrong++
				st.Wrong++
			default:
				rep.Ambiguous++
				st.Ambiguous++
			}
		}
		rep.PerStage[stage] = st
	}
	return rep, nil
}

// MultiFaultIsolationFlow exercises the ICI corollary of Section 3.1:
// faults injected simultaneously into nFaults DIFFERENT super-components
// must all be isolated by the same pattern set. It returns the number of
// trials in which every implicated super-component matched a ground-truth
// faulty one and every faulty super with a detectable fault was implicated.
//
// Simultaneous injection is simulated by unioning each fault's failing
// bits — valid under ICI because a fault in one component cannot influence
// observation points of another (their cones are disjoint by audit).
//
// Sampling depends only on the seed, so all trials' faults are drawn
// first and simulated as one deduplicated campaign across workers (<= 0 =
// all cores). With an optional checkpoint journal that campaign resumes at
// chunk granularity after a kill and the trial outcomes are bit-identical
// to an uninterrupted run.
func (s *System) MultiFaultIsolationFlow(ctx context.Context, tp *TestProgram, trials, nFaults int, seed int64, workers int, ck *fault.Checkpoint) (ok, total int, err error) {
	defer obs.Span(ctx, "isolate_multi")()
	rng := rand.New(rand.NewSource(seed))
	n := s.Design.N
	var cands []netlist.Fault
	for _, f := range tp.Universe.Collapsed {
		if f.Gate < 0 {
			continue
		}
		comp := n.CompName(n.FaultSiteComp(f))
		if s.Design.Grouping[comp] == "CHIPKILL" {
			continue
		}
		cands = append(cands, f)
	}
	// Draw every trial's faults up front (rng consumption identical to the
	// serial per-trial loop), then simulate the union in one campaign.
	chosenPerTrial := make([]map[string]netlist.Fault, trials)
	var all []netlist.Fault
	seen := map[netlist.Fault]bool{}
	for t := 0; t < trials; t++ {
		chosen := map[string]netlist.Fault{}
		for tries := 0; tries < 200 && len(chosen) < nFaults; tries++ {
			f := cands[rng.Intn(len(cands))]
			super := s.Design.Grouping[n.CompName(n.FaultSiteComp(f))]
			if _, dup := chosen[super]; !dup {
				chosen[super] = f
			}
		}
		chosenPerTrial[t] = chosen
		for _, f := range chosen {
			if !seen[f] {
				seen[f] = true
				all = append(all, f)
			}
		}
	}
	// Deterministic campaign order: sort the deduplicated fault list.
	slices.SortFunc(all, netlist.CompareFaults)
	camp := fault.NewCampaign(tp.Gen.Sim, fault.CampaignConfig{Workers: workers})
	results, _, err := camp.RunCheckpoint(ctx, ck, all)
	if err != nil {
		return 0, 0, err
	}
	resOf := make(map[netlist.Fault]fault.Result, len(all))
	for i, f := range all {
		resOf[f] = results[i]
	}

	for t := 0; t < trials; t++ {
		total++
		var allObs []int
		truth := map[string]bool{}
		detected := map[string]bool{}
		for super, f := range chosenPerTrial[t] {
			truth[super] = true
			res := resOf[f]
			if res.Detected {
				detected[super] = true
				allObs = append(allObs, res.FailObs...)
			}
		}
		supers := s.Audit.IsolateEach(allObs)
		good := len(supers) == len(detected)
		for _, sp := range supers {
			if !truth[sp] {
				good = false
			}
		}
		if good && len(detected) > 0 {
			ok++
		}
	}
	return ok, total, nil
}
