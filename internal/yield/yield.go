// Package yield implements the paper's yield methodology (Section 5):
//
//   - the ITRS PWP equation (EQ 1) used in reverse — defect density is held
//     at the calibrated value until a chosen stagnation node, then grows as
//     1/s² with the feature-size scaling factor;
//   - the negative-binomial (gamma-mixed Poisson) clustered yield model
//     with ITRS's alpha = 2, calibrated so a reference 140mm² chip yields
//     the economically-acceptable 83%;
//   - per-configuration probabilities for a core built from redundant
//     fault-equivalence groups plus a chipkill region;
//   - yield-adjusted throughput, YAT (EQ 2 / EQ 3): the gamma-mixture
//     average of expected IPC over all degraded configurations.
package yield

import (
	"math"

	"rescue/internal/area"
)

// RefChipArea is the ITRS chip area (mm²) whose random-defect-limited
// yield is calibrated to RefYield.
const (
	RefChipArea = 140.0
	RefYield    = 0.83
	Alpha       = 2.0 // ITRS clustering parameter
)

// RefLambda returns the calibrated mean faults per RefChipArea: the lambda
// at which the negative binomial yield (1+λ/α)^(−α) equals RefYield.
func RefLambda() float64 {
	return Alpha * (math.Pow(RefYield, -1/Alpha) - 1)
}

// RefDensity returns the calibrated mean fault density in faults/mm².
func RefDensity() float64 { return RefLambda() / RefChipArea }

// Density returns the mean fault density (faults/mm²) at a node, given the
// node at which PWP (and hence defect-density improvement) stagnates:
// before stagnation, process improvements hold density at the calibrated
// value; after, EQ 1 in reverse makes faults-per-area grow as 1/s².
func Density(node, stagnate area.Scaling) float64 {
	d := RefDensity()
	if node.NodeNM >= stagnate.NodeNM {
		return d
	}
	s := float64(node.NodeNM) / float64(stagnate.NodeNM) // < 1
	return d / (s * s)
}

// NegBinomialYield returns the clustered yield of a block with mean fault
// count lambda: Y = (1 + λ/α)^(−α).
func NegBinomialYield(lambda float64) float64 {
	return math.Pow(1+lambda/Alpha, -Alpha)
}

// gammaNodes integrates ∫ f(x) g(x) dx where g is the Gamma(shape=α,
// mean=1) mixing density, using fixed-step Simpson over x ∈ (0, xmax].
// With α=2 the density is x·4·e^(−2x) (θ = 1/2).
const gammaSteps = 2000

// MixGamma averages f over the ITRS clustering mixture: the local defect
// density is λ·x with x ~ Gamma(shape α, mean 1), α = 2.
func MixGamma(f func(x float64) float64) float64 {
	return MixGammaAlpha(Alpha, f)
}

// MixGammaAlpha is MixGamma with an explicit clustering parameter — small
// alpha = heavy clustering, large alpha approaches the Poisson model. Used
// by the clustering-sensitivity ablation.
func MixGammaAlpha(alpha float64, f func(x float64) float64) float64 {
	xmax := 6.0 + 24.0/alpha // cover the long tail of small-alpha mixtures
	h := xmax / gammaSteps
	theta := 1.0 / alpha
	norm := math.Gamma(alpha) * math.Pow(theta, alpha)
	pdf := func(x float64) float64 {
		return math.Pow(x, alpha-1) * math.Exp(-x/theta) / norm
	}
	sum := 0.0
	for i := 0; i <= gammaSteps; i++ {
		x := float64(i) * h
		w := 2.0
		switch {
		case i == 0 || i == gammaSteps:
			w = 1
		case i%2 == 1:
			w = 4
		}
		if x == 0 && alpha < 1 {
			continue // integrable singularity; Simpson weight 1 at 0 dropped
		}
		sum += w * pdf(x) * f(x)
	}
	return sum * h / 3
}

// NegBinomialYieldAlpha is the clustered yield with an explicit alpha.
func NegBinomialYieldAlpha(lambda, alpha float64) float64 {
	return math.Pow(1+lambda/alpha, -alpha)
}

// PoissonClean returns the probability a block of mean fault count lambda
// is fault-free under the conditional (given mixture x = 1) Poisson model.
func PoissonClean(lambda float64) float64 { return math.Exp(-lambda) }

// PairState is a redundant pair's condition.
type PairState int

// Pair conditions.
const (
	BothOK PairState = iota
	OneDown
	BothDown
)

// PairProb returns the probability distribution over a pair's states given
// the mean fault count of a single member.
func PairProb(lambdaSingle float64) [3]float64 {
	p := PoissonClean(lambdaSingle) // one member clean
	return [3]float64{p * p, 2 * p * (1 - p), (1 - p) * (1 - p)}
}

// CoreConfig identifies one degraded configuration by how many members of
// each redundant pair are down (0 or 1; 2 means dead and never appears in
// the enumeration).
type CoreConfig struct {
	FEDown, IntIQDown, FPIQDown, LSQDown, IntBEDown, FPBEDown int
}

// Configs enumerates the 64 live degraded configurations.
func Configs() []CoreConfig {
	var out []CoreConfig
	for fe := 0; fe < 2; fe++ {
		for ii := 0; ii < 2; ii++ {
			for fi := 0; fi < 2; fi++ {
				for l := 0; l < 2; l++ {
					for ib := 0; ib < 2; ib++ {
						for fb := 0; fb < 2; fb++ {
							out = append(out, CoreConfig{fe, ii, fi, l, ib, fb})
						}
					}
				}
			}
		}
	}
	return out
}

// CoreModel bundles what the YAT computation needs to know about a core:
// its per-group areas and the IPC of every live configuration (filled by
// the caller from performance simulation; Full is the no-fault IPC).
type CoreModel struct {
	Area area.Model
	Full float64
	IPC  map[CoreConfig]float64
}

// ScaleToNode returns a copy of cm with every group area scaled to the
// technology node under core growth g, so the per-mm² defect density
// applies unchanged. ChipAlpha and the Monte Carlo fab engine share this,
// which is what makes the empirical and analytic models see identical
// areas.
func ScaleToNode(cm CoreModel, node area.Scaling, growth float64) CoreModel {
	scale := node.CoreArea(cm.Area.Total, growth) / cm.Area.Total
	for g := area.Group(0); g < area.NumGroups; g++ {
		cm.Area.PairArea[g] *= scale
	}
	cm.Area.Total *= scale
	return cm
}

// YAT returns the expected IPC of one core at conditional fault density d
// (faults/mm², no mixing) — EQ 2's integrand, exported so the empirical
// Monte Carlo fleet can be compared against the same analytic curve.
func (cm CoreModel) YAT(d float64) float64 { return cm.integrand().at(d) }

// Yield returns the probability that a core at conditional fault density d
// is functional, possibly degraded: the chipkill region clean and no
// redundant pair with both members down.
func (cm CoreModel) Yield(d float64) float64 {
	y := PoissonClean(d * cm.Area.SingleArea(area.Chipkill))
	for _, g := range []area.Group{area.Frontend, area.IntIQ, area.FPIQ, area.LSQ, area.IntBE, area.FPBE} {
		y *= 1 - PairProb(d * cm.Area.SingleArea(g))[BothDown]
	}
	return y
}

// liveConfigs is Configs(), built once for the integrand's loop: two
// states for each of the six redundant pairs.
var liveConfigs = Configs()

const numConfigs = 1 << 6

// integrand is EQ 2's integrand compiled from a CoreModel: the IPC of
// every live configuration in Configs() order and whether the model
// covers it, so each evaluation is arithmetic only.
type integrand struct {
	area    area.Model
	ipc     [numConfigs]float64
	covered [numConfigs]bool
}

func (cm CoreModel) integrand() *integrand {
	in := &integrand{area: cm.Area}
	for i, c := range liveConfigs {
		in.ipc[i], in.covered[i] = cm.IPC[c]
	}
	return in
}

// at returns the expected IPC of one Rescue core at fault density d
// (faults/mm², conditional — no mixing here).
func (in *integrand) at(d float64) float64 {
	lam := func(g area.Group) float64 { return d * in.area.SingleArea(g) }
	pFE := PairProb(lam(area.Frontend))
	pII := PairProb(lam(area.IntIQ))
	pFI := PairProb(lam(area.FPIQ))
	pL := PairProb(lam(area.LSQ))
	pIB := PairProb(lam(area.IntBE))
	pFB := PairProb(lam(area.FPBE))
	ck := PoissonClean(d * in.area.SingleArea(area.Chipkill))
	total := 0.0
	for i, c := range liveConfigs {
		if !in.covered[i] {
			continue
		}
		p := pFE[c.FEDown] * pII[c.IntIQDown] * pFI[c.FPIQDown] *
			pL[c.LSQDown] * pIB[c.IntBEDown] * pFB[c.FPBEDown]
		total += p * in.ipc[i]
	}
	return ck * total
}

// csCore returns the expected IPC of a core under core sparing: all or
// nothing.
func csCore(fullIPC, lambdaCore float64) float64 {
	return fullIPC * PoissonClean(lambdaCore)
}

// ChipResult is one scenario's absolute YAT values (IPC summed over cores,
// averaged over the clustering mixture).
type ChipResult struct {
	Cores        int
	NoRedundancy float64 // single fault anywhere kills the whole chip
	CoreSparing  float64 // faulty cores disabled
	Rescue       float64 // Rescue cores with degraded modes
	Ideal        float64 // 100% yield, no degradation: Cores × full IPC
}

// Chip computes the Figure 9 quantities for one (node, stagnation, growth)
// scenario. baseCore/rescueCore give per-variant area and IPC models
// (rescueCore.IPC must cover Configs(); baseCore needs only Full).
func Chip(node, stagnate area.Scaling, growth float64, baseCore, rescueCore CoreModel) ChipResult {
	return ChipAlpha(node, stagnate, growth, baseCore, rescueCore, Alpha)
}

// ChipAlpha is Chip with an explicit clustering parameter (ablation knob).
func ChipAlpha(node, stagnate area.Scaling, growth float64, baseCore, rescueCore CoreModel, alpha float64) ChipResult {
	d := Density(node, stagnate)
	n := node.Cores(growth)
	baseArea := node.CoreArea(baseCore.Area.Total, growth)

	res := ChipResult{Cores: n, Ideal: float64(n) * baseCore.Full}
	res.NoRedundancy = MixGammaAlpha(alpha, func(x float64) float64 {
		lamChip := d * x * baseArea * float64(n)
		return float64(n) * baseCore.Full * PoissonClean(lamChip)
	})
	res.CoreSparing = MixGammaAlpha(alpha, func(x float64) float64 {
		lamCore := d * x * baseArea
		return float64(n) * csCore(baseCore.Full, lamCore)
	})
	// Rescue group areas scale with the node
	in := ScaleToNode(rescueCore, node, growth).integrand()
	res.Rescue = MixGammaAlpha(alpha, func(x float64) float64 {
		return float64(n) * in.at(d*x)
	})
	return res
}
