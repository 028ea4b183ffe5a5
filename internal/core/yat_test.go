package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rescue/internal/area"
	"rescue/internal/yield"
)

// TestYATStudyDeterministic: equal models give bit-identical Figure 9 rows
// on every call. With 23 benchmarks per model, folding them in map order
// moves the last bits of the averages from call to call.
func TestYATStudyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	models := map[int]*PerfModel{}
	for _, node := range area.Nodes() {
		pm := &PerfModel{Node: node, Baseline: map[string]float64{}, Rescue: map[string]map[yield.CoreConfig]float64{}}
		for b := 0; b < 23; b++ {
			name := fmt.Sprintf("bench%02d", b)
			pm.Baseline[name] = 0.5 + rng.Float64()
			pm.Rescue[name] = map[yield.CoreConfig]float64{}
			for _, c := range yield.Configs() {
				pm.Rescue[name][c] = 0.3 + rng.Float64()
			}
		}
		models[node.NodeNM] = pm
	}
	bits := func(rows []YATRow) []uint64 {
		var out []uint64
		for _, r := range rows {
			out = append(out, math.Float64bits(r.RelNone), math.Float64bits(r.RelCS),
				math.Float64bits(r.RelRescue), math.Float64bits(r.RescueOverCSPct))
		}
		return out
	}
	var first []uint64
	for call := 0; call < 4; call++ {
		rows, err := YATStudy(area.Node(90), models)
		if err != nil {
			t.Fatal(err)
		}
		got := bits(rows)
		if call == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("call %d: row value %d is %x, first call %x", call, i, got[i], first[i])
			}
		}
	}
}
