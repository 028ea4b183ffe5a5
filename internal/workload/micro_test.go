package workload

import (
	"testing"

	"rescue/internal/isa"
)

func TestMicroByName(t *testing.T) {
	if _, ok := MicroByName("chase"); !ok {
		t.Fatal("chase missing")
	}
	if _, ok := MicroByName("nope"); ok {
		t.Fatal("bogus name found")
	}
	if len(Microbenchmarks()) < 5 {
		t.Fatal("expected at least 5 microbenchmarks")
	}
}

// Each micro kernel must actually exhibit its designed signature.
func TestMicroSignatures(t *testing.T) {
	classCount := func(name string, n int) map[isa.Class]int {
		p, ok := MicroByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		g := Compile(p).Gen()
		counts := map[isa.Class]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Class]++
		}
		return counts
	}
	const n = 50000

	// chase: load-dominated
	c := classCount("chase", n)
	if c[isa.Load] < n/4 {
		t.Errorf("chase loads = %d of %d", c[isa.Load], n)
	}
	// torture: branch-dominated
	c = classCount("torture", n)
	if c[isa.Branch] < n/8 {
		t.Errorf("torture branches = %d of %d", c[isa.Branch], n)
	}
	// alu: almost no memory
	c = classCount("alu", n)
	if c[isa.Load]+c[isa.Store] > n/10 {
		t.Errorf("alu memory ops = %d of %d", c[isa.Load]+c[isa.Store], n)
	}
	// torture branches are mostly unpredictable: measure actual taken
	// randomness via alternation entropy proxy
	p, _ := MicroByName("torture")
	g := Compile(p).Gen()
	taken, total := 0, 0
	for i := 0; i < n; i++ {
		in := g.Next()
		if in.Class == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	frac := float64(taken) / float64(total)
	if frac < 0.15 || frac > 0.85 {
		t.Errorf("torture taken fraction %.2f not mixed", frac)
	}
}
