package atpg

import (
	"context"
	"math/rand"
	"testing"

	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/scan"
)

func TestV3Ops(t *testing.T) {
	if and3(One, Zero) != Zero || and3(One, One) != One || and3(X, One) != X || and3(X, Zero) != Zero {
		t.Fatal("and3 truth table")
	}
	if or3(Zero, One) != One || or3(Zero, Zero) != Zero || or3(X, Zero) != X || or3(X, One) != One {
		t.Fatal("or3 truth table")
	}
	if xor3(One, One) != Zero || xor3(One, Zero) != One || xor3(X, One) != X {
		t.Fatal("xor3 truth table")
	}
	if not3(X) != X || not3(One) != Zero || not3(Zero) != One {
		t.Fatal("not3 truth table")
	}
	if mux3(Zero, One, Zero) != One || mux3(One, One, Zero) != Zero ||
		mux3(X, One, One) != One || mux3(X, One, Zero) != X {
		t.Fatal("mux3 truth table")
	}
}

// applyCube converts a PODEM cube into a 1-lane scan pattern (X -> 0).
func applyCube(c *scan.Chain, cube Cube) *scan.Pattern {
	p := c.NewPattern(1)
	for i, v := range cube.PI {
		if v == One {
			p.PIVals[i] = 1
		}
	}
	for i, v := range cube.FF {
		if v == One {
			p.FFVals[i] = 1
		}
	}
	return p
}

func buildPipe() *netlist.Netlist {
	n := netlist.New("fig2b")
	a := n.Input("a")
	b := n.Input("b")
	n.Component("LCM")
	m := n.Nand(a, b)
	srs := n.AddFF(m, "SRS")
	n.Component("LCX")
	x := n.Xor(srs, a)
	n.Component("LCY")
	y := n.Or(srs, b)
	n.Component("SRT")
	sx := n.AddFF(x, "SRT.x")
	sy := n.AddFF(y, "SRT.y")
	n.Component("LCN")
	o := n.And(sx, sy)
	n.Output(o, "out")
	return n
}

// randomNetlist builds a random sequential circuit that is structurally
// valid (no combinational cycles).
func randomNetlist(seed int64, gates int) *netlist.Netlist {
	r := rand.New(rand.NewSource(seed))
	n := netlist.New("rand")
	var nets []netlist.NetID
	for i := 0; i < 8; i++ {
		nets = append(nets, n.Input("i"))
	}
	// a few FFs reading early nets
	for i := 0; i < 6; i++ {
		q := n.AddFF(nets[r.Intn(len(nets))], "q")
		nets = append(nets, q)
	}
	for g := 0; g < gates; g++ {
		k := netlist.GateKind(r.Intn(int(netlist.Mux2) + 1))
		pick := func() netlist.NetID { return nets[r.Intn(len(nets))] }
		var out netlist.NetID
		switch k {
		case netlist.Not, netlist.Buf:
			out = n.AddGate(k, pick())
		case netlist.Mux2:
			out = n.AddGate(k, pick(), pick(), pick())
		default:
			out = n.AddGate(k, pick(), pick())
		}
		nets = append(nets, out)
	}
	// sinks: some FFs and outputs so most logic is observable
	for i := 0; i < 6; i++ {
		n.AddFF(nets[len(nets)-1-i], "s")
	}
	n.Output(nets[len(nets)-1], "o")
	return n
}

func TestPodemDetectsSimpleFaults(t *testing.T) {
	n := buildPipe()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := scan.Insert(n, 1)
	u := fault.NewUniverse(n)
	for _, f := range u.Collapsed {
		cube, res := Podem(n, f, 50)
		if res != Detected {
			t.Errorf("fault %v: %v, want detected", f, res)
			continue
		}
		// verify by fault simulation
		sim := fault.NewSim(c, []*scan.Pattern{applyCube(c, cube)})
		if !sim.Run(f, true).Detected {
			t.Errorf("fault %v: PODEM cube does not detect it", f)
		}
	}
}

func TestPodemUntestableRedundantFault(t *testing.T) {
	// o = a AND (a OR b): the OR output sa1 is undetectable (redundant)
	n := netlist.New("red")
	a := n.Input("a")
	b := n.Input("b")
	orOut := n.Or(a, b)
	o := n.And(a, orOut)
	n.AddFF(o, "q")
	n.Output(o, "o")
	f := netlist.Fault{Gate: 0, FF: -1, Pin: -1, StuckAt1: true} // OR out sa1
	_, res := Podem(n, f, 200)
	if res != Untestable {
		t.Fatalf("redundant fault classified %v, want untestable", res)
	}
}

func TestPodemAgreesWithExhaustiveSimulation(t *testing.T) {
	// On random circuits: whenever PODEM says Detected the cube must work;
	// whenever it says Untestable, exhaustive simulation over all PI/FF
	// assignments must find no detecting pattern.
	smallRandom := func(seed int64, gates int) *netlist.Netlist {
		r := rand.New(rand.NewSource(seed))
		n := netlist.New("small")
		var nets []netlist.NetID
		for i := 0; i < 5; i++ {
			nets = append(nets, n.Input("i"))
		}
		for i := 0; i < 3; i++ {
			nets = append(nets, n.AddFF(nets[r.Intn(len(nets))], "q"))
		}
		for g := 0; g < gates; g++ {
			k := netlist.GateKind(r.Intn(int(netlist.Mux2) + 1))
			pick := func() netlist.NetID { return nets[r.Intn(len(nets))] }
			var out netlist.NetID
			switch k {
			case netlist.Not, netlist.Buf:
				out = n.AddGate(k, pick())
			case netlist.Mux2:
				out = n.AddGate(k, pick(), pick(), pick())
			default:
				out = n.AddGate(k, pick(), pick())
			}
			nets = append(nets, out)
		}
		for i := 0; i < 3; i++ {
			n.AddFF(nets[len(nets)-1-i], "s")
		}
		n.Output(nets[len(nets)-1], "o")
		return n
	}
	for seed := int64(0); seed < 6; seed++ {
		n := smallRandom(seed, 25)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		c, _ := scan.Insert(n, 1)
		u := fault.NewUniverse(n)
		nCtl := len(n.Inputs) + n.NumFFs()
		if nCtl > 16 {
			t.Fatalf("circuit too wide for exhaustive check: %d", nCtl)
		}
		// exhaustive pattern set
		var pats []*scan.Pattern
		total := 1 << uint(nCtl)
		for base := 0; base < total; base += 64 {
			p := c.NewPattern(64)
			if total-base < 64 {
				p.Lanes = total - base
			}
			for lane := 0; lane < p.Lanes; lane++ {
				v := base + lane
				for i := range p.PIVals {
					if v&(1<<uint(i)) != 0 {
						p.PIVals[i] |= 1 << uint(lane)
					}
				}
				for i := range p.FFVals {
					if v&(1<<uint(len(p.PIVals)+i)) != 0 {
						p.FFVals[i] |= 1 << uint(lane)
					}
				}
			}
			pats = append(pats, p)
		}
		sim := fault.NewSim(c, pats)
		for i, f := range u.Collapsed {
			if i%7 != 0 { // sample for speed
				continue
			}
			cube, res := Podem(n, f, 1000)
			exhaustive := sim.Run(f, true).Detected
			switch res {
			case Detected:
				one := fault.NewSim(c, []*scan.Pattern{applyCube(c, cube)})
				if !one.Run(f, true).Detected {
					t.Errorf("seed %d fault %v: bogus PODEM cube", seed, f)
				}
				if !exhaustive {
					t.Errorf("seed %d fault %v: PODEM detected but exhaustive says untestable", seed, f)
				}
			case Untestable:
				if exhaustive {
					t.Errorf("seed %d fault %v: PODEM untestable but a pattern exists", seed, f)
				}
			}
		}
	}
}

// mustGenerate is the test shorthand for an uninterrupted ATPG run.
func mustATPG(t *testing.T, c *scan.Chain, u *fault.Universe, cfg GenConfig) *GenResult {
	t.Helper()
	g, err := GenerateFlow(context.Background(), c, u, cfg, nil)
	if err != nil {
		t.Fatalf("ATPG failed: %v", err)
	}
	return g
}

func TestGenerateFullCoverage(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	u := fault.NewUniverse(n)
	g := mustATPG(t, c, u, DefaultGenConfig())
	if g.Coverage < 0.999 {
		t.Fatalf("coverage = %.4f, want ~1.0 (aborted=%d)", g.Coverage, g.Aborted)
	}
	if g.Vectors <= 0 || g.Cycles <= 0 {
		t.Fatalf("vectors=%d cycles=%d", g.Vectors, g.Cycles)
	}
	if g.ScanCells != 3 {
		t.Fatalf("scan cells = %d, want 3", g.ScanCells)
	}
}

func TestGenerateOnRandomCircuits(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		n := randomNetlist(seed, 120)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		c, _ := scan.Insert(n, 1)
		u := fault.NewUniverse(n)
		g := mustATPG(t, c, u, DefaultGenConfig())
		if g.Coverage < 0.99 {
			t.Errorf("seed %d: coverage %.3f < 0.99 (untestable=%d aborted=%d)",
				seed, g.Coverage, g.Untestable, g.Aborted)
		}
		// detected + untestable + aborted must account for all collapsed faults
		if g.Detected+g.Untestable+g.Aborted != g.Collapsed {
			t.Errorf("seed %d: %d+%d+%d != %d", seed,
				g.Detected, g.Untestable, g.Aborted, g.Collapsed)
		}
	}
}

func TestGenerateCyclesAccounting(t *testing.T) {
	n := buildPipe()
	c, _ := scan.Insert(n, 1)
	u := fault.NewUniverse(n)
	g := mustATPG(t, c, u, DefaultGenConfig())
	if want := c.TestCycles(g.Vectors); g.Cycles != want {
		t.Fatalf("cycles = %d, want %d", g.Cycles, want)
	}
}
