package yield

import (
	"math"
	"math/rand"
	"testing"

	"rescue/internal/area"
)

// refMixGammaAlpha is MixGammaAlpha's original loop, which evaluated the
// mixing density at every Simpson node on every call.
func refMixGammaAlpha(alpha float64, f func(x float64) float64) float64 {
	xmax := 6.0 + 24.0/alpha
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
			continue
		}
		sum += w * pdf(x) * f(x)
	}
	return sum * h / 3
}

// refAt is integrand.at's original loop: each configuration's probability
// is its own six-factor product.
func refAt(in *integrand, d float64) float64 {
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

// randomModel draws a core model with random group areas and random IPCs,
// leaving about a quarter of the configurations uncovered.
func randomModel(rng *rand.Rand) CoreModel {
	cm := CoreModel{IPC: map[CoreConfig]float64{}}
	for g := area.Group(0); g < area.NumGroups; g++ {
		cm.Area.PairArea[g] = 0.5 + 20*rng.Float64()
		cm.Area.Total += cm.Area.PairArea[g]
	}
	for _, c := range Configs() {
		if rng.Intn(4) != 0 {
			cm.IPC[c] = 0.2 + 2*rng.Float64()
		}
	}
	cm.Full = cm.IPC[CoreConfig{}]
	return cm
}

// TestKernelBitIdentical pins the yield kernel to the loops it replaced,
// bit for bit: MixGammaAlpha with its weight table (built once at the
// ITRS alpha) against the per-call density evaluation, and integrand.at
// with its shared prefix products against one six-factor product per
// configuration, for several clustering parameters and random models.
func TestKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, alpha := range []float64{0.5, 1, 2, 4} {
		for trial := 0; trial < 8; trial++ {
			in := randomModel(rng).integrand()
			d := 0.02 * rng.Float64()
			f := func(x float64) float64 { return in.at(d * x) }
			ref := func(x float64) float64 { return refAt(in, d*x) }
			for _, x := range []float64{0, 0.1, 1, 3.7, 30} {
				if got, want := f(x), ref(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("alpha %g trial %d: at(%g) = %v, reference %v", alpha, trial, d*x, got, want)
				}
			}
			if got, want := MixGammaAlpha(alpha, f), refMixGammaAlpha(alpha, ref); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("alpha %g trial %d: MixGammaAlpha = %v, reference %v", alpha, trial, got, want)
			}
		}
		lin := func(x float64) float64 { return 1 + x }
		if got, want := MixGammaAlpha(alpha, lin), refMixGammaAlpha(alpha, lin); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("alpha %g: MixGammaAlpha(1+x) = %v, reference %v", alpha, got, want)
		}
	}
}
