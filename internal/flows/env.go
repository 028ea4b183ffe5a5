package flows

import (
	"context"

	"rescue/internal/area"
	"rescue/internal/atpg"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// Env carries a flow invocation's environment: the artifact store (nil =
// build everything fresh, the CLI default) and an optional campaign
// checkpoint journal. Cached artifacts make the journal moot for the
// cached sections — journal sections are bound by content identity, so a
// flow that skips a campaign entirely on a warm hit still resumes its
// remaining campaigns correctly.
//
// Each artifact has exactly one accessor, keyed by a digest of the inputs
// that determine it. The fixed paper flows and the design-space sweep go
// through the same accessors, so a sweep point whose knobs equal the
// paper's configuration shares every artifact with the fixed flows.
type Env struct {
	Store *Store
	Ck    *fault.Checkpoint
}

// cfgFor maps the -small flag onto the RTL configuration.
func cfgFor(small bool) rtl.Config {
	if small {
		return rtl.Small()
	}
	return rtl.Default()
}

// cached returns the artifact of the given kind and key from e's store,
// building it under the requester's ctx on a miss, and whether it was a
// store hit; with no store it always builds. A build error is returned
// with whatever value the build produced (a partial result on interrupt);
// a failed build is not retained.
func cached[T any](ctx context.Context, e Env, kind string, key any, build func() (T, error)) (T, bool, error) {
	if e.Store == nil {
		val, err := build()
		return val, false, err
	}
	v, hit, err := e.Store.do(ctx, digest(kind, key), func() (any, error) { return build() })
	val, _ := v.(T)
	return val, hit, err
}

// sysKey is everything that determines a built system.
type sysKey struct {
	Cfg     rtl.Config `json:"cfg"`
	Chains  int        `json:"chains"`
	Variant string     `json:"variant"`
}

// System returns the built, scan-inserted, ICI-audited system for an RTL
// configuration, scan-chain split and design variant, from the store when
// possible. Systems are read-only after construction, so one instance
// serves concurrent jobs.
func (e Env) System(cfg rtl.Config, chains int, v rtl.Variant) (*core.System, error) {
	// The system build takes no ctx, so its errors are never a
	// requester's cancellation.
	s, _, err := cached(context.TODO(), e, "system", sysKey{cfg, chains, v.String()}, func() (*core.System, error) {
		return core.BuildChains(cfg, v, chains)
	})
	return s, err
}

// tpKey is everything that determines a generated test program: the
// system's key plus the generation knobs.
type tpKey struct {
	Sys            sysKey `json:"sys"`
	Seed           int64  `json:"seed"`
	MaxRandomWords int    `json:"maxRandomWords"`
	UselessLimit   int    `json:"uselessLimit"`
	MaxBacktracks  int    `json:"maxBacktracks"`
	// Workers is deliberately not part of the key: PODEM search and the
	// campaigns commit in fault order, so the generated test set is
	// bit-identical at any worker count.
}

func testProgramKey(sys *core.System, gen atpg.GenConfig) tpKey {
	return tpKey{
		Sys:            sysKey{sys.Design.Cfg, sys.Chain.NumChains, sys.Design.Variant.String()},
		Seed:           gen.Seed,
		MaxRandomWords: gen.MaxRandomWords,
		UselessLimit:   gen.UselessLimit,
		MaxBacktracks:  gen.MaxBacktracks,
	}
}

// TestProgram returns the generated ATPG test set for (system, generation
// config), from the store when possible. On a cold build the returned
// TestProgram carries the generation campaign's Stats; on an interrupt the
// partial program (with its stats so far) is returned alongside the error
// and nothing is cached.
func (e Env) TestProgram(ctx context.Context, sys *core.System, gen atpg.GenConfig) (*core.TestProgram, error) {
	tp, _, err := cached(ctx, e, "testprogram", testProgramKey(sys, gen), func() (*core.TestProgram, error) {
		return sys.GenerateTestsFlow(ctx, gen, e.Ck)
	})
	return tp, err
}

// dictArtifact pairs a dictionary with the campaign stats of its cold
// build, so warm hits can still report what the build cost.
type dictArtifact struct {
	d  *fault.Dictionary
	st fault.Stats
}

// Dictionary returns the full fault dictionary over tp's pattern set, from
// the store when possible; tp must be the test program generated for sys
// under gen, whose key the dictionary shares. The returned stats are those
// of the build that actually ran (zero-valued Faults on a warm hit means no
// simulation happened in this call).
func (e Env) Dictionary(ctx context.Context, sys *core.System, tp *core.TestProgram, gen atpg.GenConfig, workers int) (*fault.Dictionary, fault.Stats, error) {
	a, hit, err := cached(ctx, e, "dictionary", testProgramKey(sys, gen), func() (dictArtifact, error) {
		d, st, err := fault.BuildDictionaryFlow(ctx, tp.Gen.Sim, tp.Universe, workers, e.Ck)
		return dictArtifact{d, st}, err
	})
	if hit {
		// The work happened in some earlier job; this call simulated nothing.
		a.st = fault.Stats{}
	}
	return a.d, a.st, err
}

// pmKey is everything that determines a perf model. The netlist is
// deliberately absent: perf simulation never reads it, so variants that
// differ only in RTL knobs share the model.
type pmKey struct {
	Base    uarch.Params `json:"base"`
	Resc    uarch.Params `json:"resc"`
	NodeNM  int          `json:"nodeNM"`
	Benches []string     `json:"benches"`
	Warmup  int64        `json:"warmup"`
	Commit  int64        `json:"commit"`
}

// PerfModel returns the per-(benchmark, degraded-configuration) IPC table
// for a (baseline, Rescue) simulator parameter pair at a node, from the
// store when possible.
func (e Env) PerfModel(ctx context.Context, node int, base, resc uarch.Params, benches []string, warmup, commit int64, workers int) (*core.PerfModel, error) {
	key := pmKey{base, resc, node, benches, warmup, commit}
	pm, _, err := cached(ctx, e, "perfmodel", key, func() (*core.PerfModel, error) {
		return core.BuildPerfModelFlowParams(ctx, area.Node(node), base, resc, benches, warmup, commit, workers)
	})
	return pm, err
}
