// Package sweep implements the design-space exploration subsystem: it
// evaluates a grid of parameterized Rescue variants end to end — netlist
// build, ATPG, fault dictionary, fab fleet, yield-adjusted throughput —
// and reports the yield/YAT/area/test-time frontier.
//
// A Variant bundles every knob the rest of the codebase hard-codes to the
// paper's Table 1 machine: the RTL configuration and scan-chain split, the
// performance-simulator shape (queue sizes, pipeline depth, replay
// policy, compaction-buffer depth), and the area model's chipkill share.
// Variants serialize canonically and digest stably. The artifact store
// keys netlists, test programs, dictionaries, and perf models by the
// build inputs themselves, so any two sweep points whose relevant knobs
// coincide share them — and the paper preset shares them with the fixed
// paper flows.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"rescue/internal/area"
	"rescue/internal/rtl"
	"rescue/internal/uarch"
)

// PerfConfig is the performance-simulator shape of a variant: the Table 1
// knobs that define the *baseline* machine. The Rescue machine is derived
// (see RescueParams), exactly as the paper derives its Rescue pipeline
// from the conventional one.
type PerfConfig struct {
	Ways          int    `json:"ways"`
	IssueWidth    int    `json:"issueWidth"`
	CommitWidth   int    `json:"commitWidth"`
	IntIQSize     int    `json:"intIQSize"`
	FPIQSize      int    `json:"fpIQSize"`
	LSQSize       int    `json:"lsqSize"`
	ROBSize       int    `json:"robSize"`
	FrontendDepth int    `json:"frontendDepth"`
	CompBufSlots  int    `json:"compBufSlots"`
	SquashWindow  int    `json:"squashWindow"` // Rescue squash window (baseline always uses 1)
	ReplayPolicy  string `json:"replayPolicy"` // "smaller-half", "all", or "oracle"
}

// replayPolicy parses the serialized policy name.
func replayPolicy(s string) (uarch.ReplayPolicy, error) {
	switch s {
	case "smaller-half":
		return uarch.ReplaySmallerHalf, nil
	case "all":
		return uarch.ReplayAll, nil
	case "oracle":
		return uarch.OracleCombine, nil
	}
	return 0, fmt.Errorf("sweep: unknown replay policy %q (want smaller-half, all, or oracle)", s)
}

// BaselineParams derives the conventional-superscalar simulator
// parameters. For the paper preset this reproduces uarch.DefaultParams()
// exactly (pinned by TestPaperPresetParams).
func (pc PerfConfig) BaselineParams() uarch.Params {
	return uarch.Params{
		Ways:            pc.Ways,
		IssueWidth:      pc.IssueWidth,
		CommitWidth:     pc.CommitWidth,
		IntIQSize:       pc.IntIQSize,
		FPIQSize:        pc.FPIQSize,
		LSQSize:         pc.LSQSize,
		ROBSize:         pc.ROBSize,
		FrontendDepth:   pc.FrontendDepth,
		CompBufSlots:    pc.CompBufSlots,
		SquashWindow:    1,
		MemLatencyScale: 1,
	}
}

// RescueParams derives the Rescue machine from the baseline shape: the
// transformations add two frontend stages (shift networks) and the
// configured squash window and replay policy. For the paper preset this
// reproduces uarch.RescueParams() exactly.
func (pc PerfConfig) RescueParams() (uarch.Params, error) {
	rp, err := replayPolicy(pc.ReplayPolicy)
	if err != nil {
		return uarch.Params{}, err
	}
	p := pc.BaselineParams()
	p.Rescue = true
	p.FrontendDepth += 2
	p.SquashWindow = pc.SquashWindow
	p.ReplayPolicy = rp
	return p, nil
}

// Variant is one point's machine description: everything that determines
// the netlist, the test program, the performance model, and the area
// model. The self-heal spare share is deliberately NOT part of the
// variant — it is a fab-level axis that reuses every artifact (see
// Spec.SelfHeal).
type Variant struct {
	Netlist       rtl.Config `json:"netlist"`
	ScanChains    int        `json:"scanChains"`
	Perf          PerfConfig `json:"perf"`
	ChipkillScale float64    `json:"chipkillScale"`
}

// Validate checks the variant end to end: RTL config, scan split, both
// derived simulator parameter sets, and the area knob.
func (v Variant) Validate() error {
	if err := v.Netlist.Validate(); err != nil {
		return err
	}
	if v.ScanChains < 1 || v.ScanChains > 64 {
		return fmt.Errorf("sweep: scanChains = %d out of range [1,64]", v.ScanChains)
	}
	if v.ChipkillScale <= 0 || v.ChipkillScale > 10 {
		return fmt.Errorf("sweep: chipkillScale = %g out of range (0,10]", v.ChipkillScale)
	}
	if err := v.Perf.BaselineParams().Validate(); err != nil {
		return fmt.Errorf("sweep: baseline params: %w", err)
	}
	resc, err := v.Perf.RescueParams()
	if err != nil {
		return err
	}
	if err := resc.Validate(); err != nil {
		return fmt.Errorf("sweep: rescue params: %w", err)
	}
	return nil
}

// AreaModel composes the variant's Rescue area model with a fab-level
// self-heal spare share. ChipkillScale 1 and share 0 reproduce
// area.Rescue() bit-exactly; share > 0 with scale 1 reproduces
// area.RescueSelfHeal(share).
func (v Variant) AreaModel(selfHealShare float64) area.Model {
	m := area.RescueChipkillScaled(v.ChipkillScale)
	if selfHealShare > 0 {
		m = area.SelfHealFrom(m, selfHealShare)
	}
	return m
}

// canonDigest digests a canonical JSON serialization: kind-prefixed
// sha256, 12 hex chars — enough to never collide within one sweep grid.
func canonDigest(kind string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("sweep: digest marshal: " + err.Error()) // all key types marshal
	}
	sum := sha256.Sum256(append([]byte(kind+"\x00"), b...))
	return hex.EncodeToString(sum[:6])
}

// paperPerf is the Table 1 machine as a PerfConfig.
func paperPerf() PerfConfig {
	return PerfConfig{
		Ways:          4,
		IssueWidth:    4,
		CommitWidth:   4,
		IntIQSize:     36,
		FPIQSize:      36,
		LSQSize:       32,
		ROBSize:       128,
		FrontendDepth: 15,
		CompBufSlots:  4,
		SquashWindow:  2,
		ReplayPolicy:  "smaller-half",
	}
}

// presets is the named-variant registry. Each entry is a function so
// callers always get a fresh value.
var presets = map[string]func() Variant{
	// The paper's machine: Table 1 pipeline, single scan chain,
	// measured chipkill share. The sweep's fixed point — its yield and
	// YAT reproduce the goldens exactly.
	"paper": func() Variant {
		return Variant{Netlist: rtl.Default(), ScanChains: 1, Perf: paperPerf(), ChipkillScale: 1}
	},
	// Deeper pipeline: more frontend stages (faster clock, worse
	// misprediction cost) and a wider Rescue squash window.
	"deep-pipe": func() Variant {
		v := Variant{Netlist: rtl.Default(), ScanChains: 1, Perf: paperPerf(), ChipkillScale: 1}
		v.Perf.FrontendDepth = 22
		v.Perf.SquashWindow = 3
		return v
	},
	// Shallower pipeline: the misprediction-tolerant end of the axis.
	"shallow-pipe": func() Variant {
		v := Variant{Netlist: rtl.Default(), ScanChains: 1, Perf: paperPerf(), ChipkillScale: 1}
		v.Perf.FrontendDepth = 8
		return v
	},
	// Bitmap-style wakeup: cheap broadcast lets the windows grow —
	// bigger queues, ROB, and compaction buffer, paid for with a larger
	// chipkill share (wider wakeup control).
	"wide-wakeup": func() Variant {
		v := Variant{Netlist: rtl.Default(), ScanChains: 1, Perf: paperPerf(), ChipkillScale: 1.15}
		v.Perf.IntIQSize = 48
		v.Perf.FPIQSize = 48
		v.Perf.LSQSize = 40
		v.Perf.ROBSize = 160
		v.Perf.CompBufSlots = 6
		return v
	},
	// CAM-style wakeup: expensive match ports keep the windows small —
	// smaller queues and compaction buffer, a leaner chipkill complex.
	"lean-wakeup": func() Variant {
		v := Variant{Netlist: rtl.Default(), ScanChains: 1, Perf: paperPerf(), ChipkillScale: 0.9}
		v.Perf.IntIQSize = 24
		v.Perf.FPIQSize = 24
		v.Perf.LSQSize = 24
		v.Perf.ROBSize = 96
		v.Perf.CompBufSlots = 2
		return v
	},
}

// Presets returns the registered preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns a fresh copy of a named preset variant.
func Preset(name string) (Variant, bool) {
	f, ok := presets[name]
	if !ok {
		return Variant{}, false
	}
	return f(), true
}
