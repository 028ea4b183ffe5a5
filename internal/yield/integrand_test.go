package yield

import (
	"math"
	"testing"

	"rescue/internal/area"
)

// refYAT is the map-based integrand the compiled table replaced, kept as
// the reference: it rebuilds Configs() and looks each IPC up by key.
func refYAT(cm CoreModel, d float64) float64 {
	lam := func(g area.Group) float64 { return d * cm.Area.SingleArea(g) }
	pFE := PairProb(lam(area.Frontend))
	pII := PairProb(lam(area.IntIQ))
	pFI := PairProb(lam(area.FPIQ))
	pL := PairProb(lam(area.LSQ))
	pIB := PairProb(lam(area.IntBE))
	pFB := PairProb(lam(area.FPBE))
	ck := PoissonClean(d * cm.Area.SingleArea(area.Chipkill))
	total := 0.0
	for _, c := range Configs() {
		p := pFE[c.FEDown] * pII[c.IntIQDown] * pFI[c.FPIQDown] *
			pL[c.LSQDown] * pIB[c.IntBEDown] * pFB[c.FPBEDown]
		ipc, ok := cm.IPC[c]
		if !ok {
			continue
		}
		total += p * ipc
	}
	return ck * total
}

// TestIntegrandMatchesMapReference pins the compiled integrand to the
// map-based one bit for bit: Chip's Rescue YAT at every node, growth rate
// and stagnation node, for a model covering every configuration and for
// one with gaps, and YAT across a density sweep.
func TestIntegrandMatchesMapReference(t *testing.T) {
	full := map[CoreConfig]float64{}
	gappy := map[CoreConfig]float64{}
	for i, c := range Configs() {
		ipc := 1.9 - 0.0137*float64(i) + 1e-3*math.Sin(float64(i))
		full[c] = ipc
		if i%5 != 3 {
			gappy[c] = ipc
		}
	}
	base := CoreModel{Area: area.BaselineWithScan(), Full: 1.9}
	for _, ipcs := range []map[CoreConfig]float64{full, gappy} {
		resc := CoreModel{Area: area.Rescue(), Full: ipcs[CoreConfig{}], IPC: ipcs}
		for _, d := range []float64{0, 1e-4, 3e-3, 0.05, 1} {
			if got, want := resc.YAT(d), refYAT(resc, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("YAT(%g) = %v, map reference %v", d, got, want)
			}
		}
		for _, stag := range area.Nodes() {
			for _, node := range area.Nodes() {
				for _, g := range area.GrowthRates() {
					got := Chip(node, stag, g, base, resc).Rescue
					d := Density(node, stag)
					n := node.Cores(g)
					cm := ScaleToNode(resc, node, g)
					want := MixGamma(func(x float64) float64 { return float64(n) * refYAT(cm, d*x) })
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("stagnate %dnm node %dnm growth %g: Rescue %v, map reference %v",
							stag.NodeNM, node.NodeNM, g, got, want)
					}
				}
			}
		}
	}
}
