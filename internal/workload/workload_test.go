package workload

import (
	"sync"
	"testing"

	"rescue/internal/isa"
)

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 23 {
		t.Fatalf("benchmarks = %d, want 23 (paper: SPEC2000 minus ammp, galgel, gap)", len(bs))
	}
	seen := map[string]bool{}
	for _, p := range bs {
		if seen[p.Name] {
			t.Fatalf("duplicate benchmark %s", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"gzip", "bzip2", "swim", "mcf", "sixtrack"} {
		if !seen[name] {
			t.Fatalf("missing %s", name)
		}
	}
	if seen["ammp"] || seen["galgel"] || seen["gap"] {
		t.Fatal("paper excludes ammp, galgel, gap")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("swim")
	if err != nil || p.Name != "swim" {
		t.Fatalf("ByName(swim) = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestDeterministicStream(t *testing.T) {
	p, _ := ByName("gzip")
	a, b := Compile(p).Gen(), Compile(p).Gen()
	for i := 0; i < 10000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("divergence at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

// TestProgramSharedAcrossGoroutines pins that a compiled Program is
// read-only: generators walking one Program on concurrent goroutines each
// produce the stream a fresh compile does (run with -race).
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	p, _ := ByName("gcc")
	const n = 20000
	want := make([]isa.Inst, n)
	ref := Compile(p).Gen()
	for i := range want {
		want[i] = ref.Next()
	}
	prog := Compile(p)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := prog.Gen()
			for i := range want {
				if got := g.Next(); got != want[i] {
					t.Errorf("divergence at %d: %+v vs %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPCChainConsistency(t *testing.T) {
	// the PC walk must be self-consistent: each instruction's PC equals
	// the previous instruction's NextPC
	p, _ := ByName("vpr")
	g := Compile(p).Gen()
	prev := g.Next()
	for i := 0; i < 50000; i++ {
		cur := g.Next()
		if cur.PC != prev.NextPC() {
			t.Fatalf("at %d: PC %x but previous NextPC %x (prev %+v)", i, cur.PC, prev.NextPC(), prev)
		}
		prev = cur
	}
}

func TestCodeFootprintBound(t *testing.T) {
	p, _ := ByName("swim") // 24KB code
	g := Compile(p).Gen()
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.PC < 0x1000 || in.PC > 0x1000+p.CodeFootprint+8*64 {
			t.Fatalf("PC %x outside code footprint", in.PC)
		}
	}
}

func TestMixRoughlyMatchesProfile(t *testing.T) {
	p, _ := ByName("gzip")
	g := Compile(p).Gen()
	counts := map[isa.Class]int{}
	n := 200000
	for i := 0; i < n; i++ {
		counts[g.Next().Class]++
	}
	loadFrac := float64(counts[isa.Load]) / float64(n)
	if loadFrac < p.LoadFrac*0.35 || loadFrac > p.LoadFrac*1.8 {
		t.Fatalf("load fraction %.3f vs profile %.3f", loadFrac, p.LoadFrac)
	}
	brFrac := float64(counts[isa.Branch]) / float64(n)
	if brFrac < 0.05 || brFrac > 0.35 {
		t.Fatalf("branch fraction %.3f out of band", brFrac)
	}
}

func TestMemAddressesWithinFootprint(t *testing.T) {
	p, _ := ByName("mcf")
	g := Compile(p).Gen()
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if !in.Class.IsMem() {
			continue
		}
		if in.Addr < 0x10000000 || in.Addr >= 0x10000000+p.Footprint {
			t.Fatalf("addr %x outside footprint", in.Addr)
		}
	}
}

func TestFPBenchmarkHasFPOps(t *testing.T) {
	p, _ := ByName("swim")
	g := Compile(p).Gen()
	fp := 0
	for i := 0; i < 50000; i++ {
		if g.Next().Class.IsFP() {
			fp++
		}
	}
	if fp < 5000 {
		t.Fatalf("swim produced only %d fp ops in 50k", fp)
	}
	// and an int benchmark has none by default
	pi, _ := ByName("gzip")
	gi := Compile(pi).Gen()
	fp = 0
	for i := 0; i < 50000; i++ {
		if gi.Next().Class.IsFP() {
			fp++
		}
	}
	if fp != 0 {
		t.Fatalf("gzip produced %d fp ops", fp)
	}
}

func TestLoopBranchesMostlyTaken(t *testing.T) {
	p, _ := ByName("swim") // LoopWeight 0.9, long trips
	g := Compile(p).Gen()
	taken, total := 0, 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Class == isa.Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 || float64(taken)/float64(total) < 0.6 {
		t.Fatalf("swim taken rate %d/%d too low for a loopy code", taken, total)
	}
}
