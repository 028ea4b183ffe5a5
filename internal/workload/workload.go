// Package workload generates deterministic synthetic instruction traces
// standing in for the 23 SPEC2000 benchmarks the paper simulates (Section
// 5; the paper runs 100M-instruction SimPoints of SPEC2000, which we do not
// have). Each benchmark is a static synthetic program — a control-flow
// graph of basic blocks with fixed instruction templates, loop trip
// patterns, and per-instruction memory streams — walked dynamically. The
// profiles are chosen so the set spans the IPC range and issue-queue
// sensitivity the paper reports (Figure 8: 0% (swim) to 10% (bzip) Rescue
// degradation, mean ~4%).
package workload

import (
	"fmt"
	"math/rand"

	"rescue/internal/isa"
)

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string
	// Instruction mix (fractions of non-branch instructions).
	LoadFrac, StoreFrac float64
	FPFrac              float64 // fraction of compute in FP units
	MulFrac, DivFrac    float64 // within the compute population
	// Control flow.
	BlockLen       float64 // mean basic-block length (instructions)
	LoopWeight     float64 // fraction of blocks ending in a loop back-edge
	LoopTrip       int     // mean loop trip count (predictability knob)
	RandomBranches float64 // fraction of branches with random direction
	// Memory behavior. Each static memory instruction is assigned a
	// locality class at program-construction time: with probability L1Frac
	// it works in a small (L1-resident) region, with probability L2Frac in
	// a medium (L2-resident) region, otherwise it roams the full
	// footprint. Zero values default to 0.90/0.08.
	Footprint      uint64 // data working-set bytes
	L1Frac, L2Frac float64
	StrideFrac     float64 // fraction of memory instructions that stream
	// CodeFootprint bounds the hot code region (i-cache behavior).
	CodeFootprint uint64
	// Dependences.
	DepDist float64 // mean register reuse distance (higher = more ILP)
	// BurstFrac: fraction of blocks that are high-ILP bursts (independent
	// ops waking together — stresses selection and Rescue's replay).
	BurstFrac float64
}

type branchKind uint8

const (
	loopBranch branchKind = iota
	biasedBranch
	randomBranch
)

// template is one static instruction.
type template struct {
	class      isa.Class
	dest       isa.Reg
	src1, src2 isa.Reg
	// memory template
	stream bool // streaming (strided) vs random-in-region
	stride uint64
	base   uint64 // region base offset within the footprint
	region uint64 // region size (locality class)
}

// block is one static basic block ending in a branch.
type block struct {
	pc    uint64
	insts []template
	// branch
	kind      branchKind
	trip      int     // loop trip count
	takenProb float64 // for biased/random
	takenIdx  int     // target block when taken
	fallIdx   int     // next block when not taken
	brSrc     isa.Reg
}

// Program is a benchmark's compiled static program: its basic blocks with
// their instruction templates and branch behavior. It is read-only once
// Compile returns, so any number of generators, on any goroutines, can
// walk one Program.
type Program struct {
	p      Profile
	seed   int64
	blocks []block
}

// Gen walks a compiled program, producing a deterministic dynamic
// instruction stream. Each simulation owns its own Gen.
type Gen struct {
	prog *Program
	rng  *rand.Rand // dynamic randomness (random-direction branches, addresses)

	cur     int // current block
	idx     int // next instruction slot in the block
	trips   map[int]int
	streams map[int]uint64 // per static mem-inst stream cursor (key: block<<8|slot)
}

// Compile builds a profile's static program. The program and every
// stream its generators produce are a pure function of the profile
// (seeded by its name), so runs are reproducible.
func Compile(p Profile) *Program {
	if p.CodeFootprint == 0 {
		p.CodeFootprint = 64 << 10
	}
	seed := int64(0)
	for _, c := range p.Name {
		seed = seed*131 + int64(c)
	}
	prog := &Program{p: p, seed: seed}
	prog.build(rand.New(rand.NewSource(seed))) // static program construction
	return prog
}

// Gen starts a fresh dynamic walk of the program from its first block.
func (prog *Program) Gen() *Gen {
	return &Gen{
		prog:    prog,
		rng:     rand.New(rand.NewSource(prog.seed ^ 0x5eed)),
		trips:   map[int]int{},
		streams: map[int]uint64{},
	}
}

// UsesFP reports whether any static instruction of the program is
// FP-class (isa.Class.IsFP). Every dynamic instruction comes from one of
// these templates or is a branch, so a program for which it is false
// never issues to the FP backend.
func (prog *Program) UsesFP() bool {
	for _, b := range prog.blocks {
		for _, t := range b.insts {
			if t.class.IsFP() {
				return true
			}
		}
	}
	return false
}

// build constructs the static program.
func (prog *Program) build(sr *rand.Rand) {
	p := prog.p
	pc := uint64(0x1000)
	limit := uint64(0x1000) + p.CodeFootprint
	// recent destinations for dependence-distance synthesis
	var recentInt, recentFP []isa.Reg
	for i := 0; i < 8; i++ {
		recentInt = append(recentInt, isa.Reg(i))
		recentFP = append(recentFP, isa.Reg(isa.NumIntRegs+i))
	}
	pickSrc := func(fp, burst bool) isa.Reg {
		pool := recentInt
		if fp {
			pool = recentFP
		}
		d := int(sr.ExpFloat64() * p.DepDist)
		if burst {
			d += len(pool)
		}
		if d >= len(pool) {
			d = len(pool) - 1
		}
		return pool[len(pool)-1-d]
	}
	pickDest := func(fp bool) isa.Reg {
		var r isa.Reg
		if fp {
			r = isa.Reg(isa.NumIntRegs + sr.Intn(isa.NumFPRegs))
			recentFP = append(recentFP, r)
			if len(recentFP) > 24 {
				recentFP = recentFP[1:]
			}
		} else {
			r = isa.Reg(sr.Intn(isa.NumIntRegs))
			recentInt = append(recentInt, r)
			if len(recentInt) > 24 {
				recentInt = recentInt[1:]
			}
		}
		return r
	}

	// Shared data regions: the hot (L1-resident) and warm (L2-resident)
	// working sets are program-wide, not per-instruction, so their
	// aggregate size matches real cache behavior: ~48KB hot, ~1MB warm.
	const nHot, nWarm = 6, 8
	hotBase := make([]uint64, nHot)
	warmBase := make([]uint64, nWarm)
	region := func(sz uint64) uint64 {
		if sz > p.Footprint {
			sz = p.Footprint
		}
		return sz
	}
	hotSz := region(8 << 10)
	warmSz := region(128 << 10)
	for i := range hotBase {
		if p.Footprint > hotSz {
			hotBase[i] = uint64(sr.Int63n(int64(p.Footprint-hotSz))) &^ 63
		}
	}
	for i := range warmBase {
		if p.Footprint > warmSz {
			warmBase[i] = uint64(sr.Int63n(int64(p.Footprint-warmSz))) &^ 63
		}
	}

	for pc < limit {
		var b block
		b.pc = pc
		burst := sr.Float64() < p.BurstFrac
		// half deterministic, half exponential: mean ~BlockLen, minimum
		// BlockLen/2 — a pure exponential leaves too many 1-2 instruction
		// blocks, which hot loops amplify into unrealistic branch density
		n := 1 + int(p.BlockLen/2) + int(sr.ExpFloat64()*p.BlockLen/2)
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			var t template
			r := sr.Float64()
			fp := sr.Float64() < p.FPFrac
			switch {
			case r < p.LoadFrac:
				t.class = isa.Load
				t.dest = pickDest(fp)
				t.src1 = pickSrc(false, burst)
				t.src2 = isa.RegNone
			case r < p.LoadFrac+p.StoreFrac:
				t.class = isa.Store
				t.dest = isa.RegNone
				t.src1 = pickSrc(false, burst)
				t.src2 = pickSrc(fp, burst)
			default:
				rr := sr.Float64()
				switch {
				case fp && rr < p.DivFrac:
					t.class = isa.FPDiv
				case fp && rr < p.DivFrac+p.MulFrac:
					t.class = isa.FPMul
				case fp:
					t.class = isa.FPAdd
				case rr < p.DivFrac:
					t.class = isa.IntDiv
				case rr < p.DivFrac+p.MulFrac:
					t.class = isa.IntMul
				default:
					t.class = isa.IntALU
				}
				t.dest = pickDest(fp)
				t.src1 = pickSrc(fp, burst)
				t.src2 = pickSrc(fp, burst)
			}
			if t.class.IsMem() {
				t.stream = sr.Float64() < p.StrideFrac
				t.stride = 8
				if sr.Intn(4) == 0 {
					t.stride = 64 // cache-line stride
				}
				l1f, l2f := p.L1Frac, p.L2Frac
				if l1f == 0 && l2f == 0 {
					l1f, l2f = 0.90, 0.08
				}
				switch lr := sr.Float64(); {
				case lr < l1f:
					t.region = hotSz
					t.base = hotBase[sr.Intn(nHot)]
				case lr < l1f+l2f:
					t.region = warmSz
					t.base = warmBase[sr.Intn(nWarm)]
				default:
					t.region = p.Footprint
					t.base = 0
				}
			}
			b.insts = append(b.insts, t)
			pc += 8
		}
		// terminating branch
		b.brSrc = pickSrc(false, false)
		switch {
		case sr.Float64() < p.LoopWeight:
			b.kind = loopBranch
			b.trip = 1 + sr.Intn(2*p.LoopTrip)
		case sr.Float64() < p.RandomBranches/(1-p.LoopWeight+1e-9):
			b.kind = randomBranch
			b.takenProb = 0.5
		default:
			b.kind = biasedBranch
			b.takenProb = 0.05
		}
		pc += 8
		prog.blocks = append(prog.blocks, b)
	}
	// wire targets: fallthrough = next block; loop = back edge; biased and
	// random = forward skip. Last block jumps to block 0.
	nb := len(prog.blocks)
	for i := range prog.blocks {
		b := &prog.blocks[i]
		b.fallIdx = (i + 1) % nb
		switch b.kind {
		case loopBranch:
			back := 2 + sr.Intn(8)
			if back > i {
				back = i
			}
			b.takenIdx = i - back
		default:
			skip := 1 + sr.Intn(8)
			b.takenIdx = (i + skip) % nb
		}
	}
	last := &prog.blocks[nb-1]
	last.kind = loopBranch
	last.trip = 1 << 30 // effectively always taken: the outer loop
	last.takenIdx = 0
}

func (g *Gen) memAddr(bi, slot int, t *template) uint64 {
	key := bi<<8 | slot
	if t.stream {
		cur := g.streams[key]
		g.streams[key] = (cur + t.stride) % t.region
		return 0x10000000 + t.base + cur&^7
	}
	return 0x10000000 + t.base + (uint64(g.rng.Int63n(int64(t.region))))&^7
}

// Next produces the next dynamic instruction.
func (g *Gen) Next() isa.Inst {
	b := &g.prog.blocks[g.cur]
	if g.idx < len(b.insts) {
		t := &b.insts[g.idx]
		pc := b.pc + uint64(8*g.idx)
		inst := isa.Inst{PC: pc, Class: t.class, Dest: t.dest, Src1: t.src1, Src2: t.src2}
		if t.class.IsMem() {
			inst.Addr = g.memAddr(g.cur, g.idx, t)
		}
		g.idx++
		return inst
	}
	// branch
	pc := b.pc + uint64(8*len(b.insts))
	inst := isa.Inst{PC: pc, Class: isa.Branch, Dest: isa.RegNone, Src1: b.brSrc, Src2: isa.RegNone}
	taken := false
	switch b.kind {
	case loopBranch:
		trips, ok := g.trips[g.cur]
		if !ok {
			trips = b.trip
		}
		if trips > 0 {
			taken = true
			g.trips[g.cur] = trips - 1
		} else {
			delete(g.trips, g.cur)
		}
	case randomBranch:
		taken = g.rng.Float64() < b.takenProb
	default:
		taken = g.rng.Float64() < b.takenProb
	}
	inst.Taken = taken
	next := b.fallIdx
	if taken {
		next = b.takenIdx
	}
	inst.Target = g.prog.blocks[b.takenIdx].pc
	g.cur = next
	g.idx = 0
	return inst
}

// Benchmarks returns the 23 SPEC2000 stand-in profiles in the order the
// paper's Figure 8 lists them (SPECint then SPECfp; ammp, galgel and gap
// are excluded exactly as in the paper).
func Benchmarks() []Profile {
	return []Profile{
		// --- SPECint 2000 ---
		{Name: "gzip", LoadFrac: 0.22, StoreFrac: 0.08, BlockLen: 7, LoopWeight: 0.5, LoopTrip: 24, RandomBranches: 0.10, Footprint: 180 << 10, L1Frac: 0.97, L2Frac: 0.025, StrideFrac: 0.8, CodeFootprint: 48 << 10, DepDist: 3.4, BurstFrac: 0.35},
		{Name: "vpr", LoadFrac: 0.28, StoreFrac: 0.10, BlockLen: 6, LoopWeight: 0.4, LoopTrip: 12, RandomBranches: 0.14, Footprint: 2 << 20, L1Frac: 0.96, L2Frac: 0.04, StrideFrac: 0.4, CodeFootprint: 96 << 10, DepDist: 3, BurstFrac: 0.25},
		{Name: "gcc", LoadFrac: 0.26, StoreFrac: 0.12, BlockLen: 5, LoopWeight: 0.35, LoopTrip: 8, RandomBranches: 0.1, Footprint: 4 << 20, L1Frac: 0.95, L2Frac: 0.04, StrideFrac: 0.35, CodeFootprint: 640 << 10, DepDist: 2.8, BurstFrac: 0.12},
		{Name: "mcf", LoadFrac: 0.35, StoreFrac: 0.09, BlockLen: 6, LoopWeight: 0.45, LoopTrip: 16, RandomBranches: 0.10, Footprint: 96 << 20, L1Frac: 0.86, L2Frac: 0.12, StrideFrac: 0.1, CodeFootprint: 32 << 10, DepDist: 2.2, BurstFrac: 0.05},
		{Name: "crafty", LoadFrac: 0.27, StoreFrac: 0.07, BlockLen: 8, LoopWeight: 0.4, LoopTrip: 20, RandomBranches: 0.12, Footprint: 1 << 20, L1Frac: 0.97, L2Frac: 0.025, StrideFrac: 0.5, CodeFootprint: 160 << 10, DepDist: 3.6, BurstFrac: 0.3},
		{Name: "parser", LoadFrac: 0.24, StoreFrac: 0.10, BlockLen: 5, LoopWeight: 0.35, LoopTrip: 10, RandomBranches: 0.15, Footprint: 8 << 20, L1Frac: 0.95, L2Frac: 0.05, StrideFrac: 0.3, CodeFootprint: 96 << 10, DepDist: 3, BurstFrac: 0.1},
		{Name: "eon", LoadFrac: 0.26, StoreFrac: 0.13, BlockLen: 9, LoopWeight: 0.5, LoopTrip: 18, RandomBranches: 0.06, Footprint: 512 << 10, L1Frac: 0.96, L2Frac: 0.03, StrideFrac: 0.6, CodeFootprint: 192 << 10, DepDist: 3.2, FPFrac: 0.2, BurstFrac: 0.35},
		{Name: "perlbmk", LoadFrac: 0.27, StoreFrac: 0.12, BlockLen: 5, LoopWeight: 0.3, LoopTrip: 9, RandomBranches: 0.1, Footprint: 6 << 20, L1Frac: 0.96, L2Frac: 0.04, StrideFrac: 0.3, CodeFootprint: 320 << 10, DepDist: 3, BurstFrac: 0.12},
		{Name: "vortex", LoadFrac: 0.29, StoreFrac: 0.14, BlockLen: 7, LoopWeight: 0.4, LoopTrip: 14, RandomBranches: 0.06, Footprint: 12 << 20, L1Frac: 0.95, L2Frac: 0.04, StrideFrac: 0.45, CodeFootprint: 256 << 10, DepDist: 3.2, BurstFrac: 0.2},
		{Name: "bzip2", LoadFrac: 0.24, StoreFrac: 0.09, BlockLen: 9, LoopWeight: 0.55, LoopTrip: 28, RandomBranches: 0.05, Footprint: 3 << 20, L1Frac: 0.96, L2Frac: 0.02, StrideFrac: 0.7, CodeFootprint: 48 << 10, DepDist: 3.4, BurstFrac: 0.6},
		{Name: "twolf", LoadFrac: 0.28, StoreFrac: 0.09, BlockLen: 6, LoopWeight: 0.4, LoopTrip: 11, RandomBranches: 0.1, Footprint: 2 << 20, L1Frac: 0.95, L2Frac: 0.05, StrideFrac: 0.3, CodeFootprint: 96 << 10, DepDist: 2.9, BurstFrac: 0.12},
		// --- SPECfp 2000 ---
		{Name: "wupwise", LoadFrac: 0.26, StoreFrac: 0.10, FPFrac: 0.75, MulFrac: 0.3, DivFrac: 0.01, BlockLen: 14, LoopWeight: 0.8, LoopTrip: 60, RandomBranches: 0.02, Footprint: 40 << 20, L1Frac: 0.93, L2Frac: 0.06, StrideFrac: 0.9, CodeFootprint: 32 << 10, DepDist: 3.8, BurstFrac: 0.35},
		{Name: "swim", LoadFrac: 0.30, StoreFrac: 0.12, FPFrac: 0.8, MulFrac: 0.35, DivFrac: 0.0, BlockLen: 20, LoopWeight: 0.9, LoopTrip: 120, RandomBranches: 0.005, Footprint: 190 << 20, L1Frac: 0.95, L2Frac: 0.04, StrideFrac: 0.97, CodeFootprint: 24 << 10, DepDist: 4.6, BurstFrac: 0.05},
		{Name: "mgrid", LoadFrac: 0.33, StoreFrac: 0.08, FPFrac: 0.85, MulFrac: 0.4, DivFrac: 0.0, BlockLen: 18, LoopWeight: 0.9, LoopTrip: 90, RandomBranches: 0.01, Footprint: 56 << 20, L1Frac: 0.93, L2Frac: 0.06, StrideFrac: 0.95, CodeFootprint: 24 << 10, DepDist: 3.8, BurstFrac: 0.35},
		{Name: "applu", LoadFrac: 0.30, StoreFrac: 0.10, FPFrac: 0.8, MulFrac: 0.35, DivFrac: 0.02, BlockLen: 16, LoopWeight: 0.85, LoopTrip: 70, RandomBranches: 0.01, Footprint: 180 << 20, L1Frac: 0.91, L2Frac: 0.07, StrideFrac: 0.9, CodeFootprint: 48 << 10, DepDist: 3.5, BurstFrac: 0.3},
		{Name: "mesa", LoadFrac: 0.24, StoreFrac: 0.11, FPFrac: 0.55, MulFrac: 0.3, DivFrac: 0.02, BlockLen: 9, LoopWeight: 0.6, LoopTrip: 26, RandomBranches: 0.04, Footprint: 9 << 20, L1Frac: 0.96, L2Frac: 0.03, StrideFrac: 0.7, CodeFootprint: 128 << 10, DepDist: 3.2, BurstFrac: 0.3},
		{Name: "art", LoadFrac: 0.34, StoreFrac: 0.07, FPFrac: 0.7, MulFrac: 0.35, DivFrac: 0.01, BlockLen: 12, LoopWeight: 0.8, LoopTrip: 48, RandomBranches: 0.02, Footprint: 3600 << 10, L1Frac: 0.88, L2Frac: 0.1, StrideFrac: 0.5, CodeFootprint: 24 << 10, DepDist: 2.8, BurstFrac: 0.1},
		{Name: "equake", LoadFrac: 0.36, StoreFrac: 0.08, FPFrac: 0.65, MulFrac: 0.35, DivFrac: 0.02, BlockLen: 11, LoopWeight: 0.75, LoopTrip: 40, RandomBranches: 0.03, Footprint: 48 << 20, L1Frac: 0.88, L2Frac: 0.09, StrideFrac: 0.6, CodeFootprint: 48 << 10, DepDist: 2.6, BurstFrac: 0.15},
		{Name: "facerec", LoadFrac: 0.28, StoreFrac: 0.08, FPFrac: 0.7, MulFrac: 0.35, DivFrac: 0.01, BlockLen: 13, LoopWeight: 0.8, LoopTrip: 55, RandomBranches: 0.02, Footprint: 16 << 20, L1Frac: 0.96, L2Frac: 0.03, StrideFrac: 0.85, CodeFootprint: 48 << 10, DepDist: 3.6, BurstFrac: 0.45},
		{Name: "lucas", LoadFrac: 0.27, StoreFrac: 0.10, FPFrac: 0.85, MulFrac: 0.4, DivFrac: 0.0, BlockLen: 17, LoopWeight: 0.85, LoopTrip: 80, RandomBranches: 0.01, Footprint: 128 << 20, L1Frac: 0.93, L2Frac: 0.05, StrideFrac: 0.9, CodeFootprint: 32 << 10, DepDist: 4, BurstFrac: 0.3},
		{Name: "fma3d", LoadFrac: 0.29, StoreFrac: 0.12, FPFrac: 0.75, MulFrac: 0.35, DivFrac: 0.02, BlockLen: 12, LoopWeight: 0.7, LoopTrip: 35, RandomBranches: 0.03, Footprint: 100 << 20, L1Frac: 0.96, L2Frac: 0.03, StrideFrac: 0.7, CodeFootprint: 256 << 10, DepDist: 3.4, BurstFrac: 0.35},
		{Name: "sixtrack", LoadFrac: 0.25, StoreFrac: 0.09, FPFrac: 0.8, MulFrac: 0.4, DivFrac: 0.03, BlockLen: 15, LoopWeight: 0.8, LoopTrip: 65, RandomBranches: 0.02, Footprint: 26 << 20, L1Frac: 0.97, L2Frac: 0.02, StrideFrac: 0.85, CodeFootprint: 96 << 10, DepDist: 3.4, BurstFrac: 0.35},
		{Name: "apsi", LoadFrac: 0.28, StoreFrac: 0.10, FPFrac: 0.75, MulFrac: 0.35, DivFrac: 0.02, BlockLen: 13, LoopWeight: 0.75, LoopTrip: 45, RandomBranches: 0.03, Footprint: 192 << 20, L1Frac: 0.95, L2Frac: 0.04, StrideFrac: 0.8, CodeFootprint: 64 << 10, DepDist: 3.4, BurstFrac: 0.4},
	}
}

// ByName returns the profile for a benchmark name.
func ByName(name string) (Profile, error) {
	for _, p := range Benchmarks() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
