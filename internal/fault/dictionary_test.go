package fault

import (
	"strings"
	"testing"

	"rescue/internal/netlist"
	"rescue/internal/scan"
)

func dictFixture(t *testing.T) (*Sim, *Universe) {
	t.Helper()
	n := buildPipe()
	c, err := scan.Insert(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomPatterns(c, 6, 3)
	return NewSim(c, pats), NewUniverse(n)
}

func TestBuildDictionary(t *testing.T) {
	sim, u := dictFixture(t)
	d := mustDictionary(t, sim, u, 0)
	if len(d.Syndromes) != u.CountCollapsed() {
		t.Fatalf("syndromes = %d, want %d", len(d.Syndromes), u.CountCollapsed())
	}
	if d.Detected() < u.CountCollapsed()*9/10 {
		t.Fatalf("only %d/%d detected", d.Detected(), u.CountCollapsed())
	}
	// every syndrome must agree with direct simulation
	for i, f := range u.Collapsed {
		res := sim.Run(f, 0)
		if len(res.FailObs) != len(d.Syndromes[i]) {
			t.Fatalf("fault %d: dictionary %v vs sim %v", i, d.Syndromes[i], res.FailObs)
		}
	}
}

func TestDictionaryLookup(t *testing.T) {
	sim, u := dictFixture(t)
	d := mustDictionary(t, sim, u, 0)
	// the true fault must always be among the diagnosis candidates
	for i := range u.Collapsed {
		if len(d.Syndromes[i]) == 0 {
			continue
		}
		cands := d.Lookup(d.Syndromes[i])
		found := false
		for _, c := range cands {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("fault %d not among its own candidates %v", i, cands)
		}
	}
	// looking up an impossible syndrome yields no candidates
	if cands := d.Lookup([]int{0, 1, 2, 3}); len(cands) != 0 {
		t.Fatalf("impossible syndrome matched %v", cands)
	}
}

func TestDictionaryCSVRoundTrip(t *testing.T) {
	sim, u := dictFixture(t)
	d := mustDictionary(t, sim, u, 0)
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Syndromes) != len(d.Syndromes) {
		t.Fatalf("round trip lost rows: %d vs %d", len(got.Syndromes), len(d.Syndromes))
	}
	for i := range d.Syndromes {
		if len(got.Syndromes[i]) != len(d.Syndromes[i]) {
			t.Fatalf("row %d differs", i)
		}
		for j := range d.Syndromes[i] {
			if got.Syndromes[i][j] != d.Syndromes[i][j] {
				t.Fatalf("row %d bit %d differs", i, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("garbage")); err == nil {
		t.Fatal("no comma must error")
	}
	if _, err := ReadCSV(strings.NewReader("x,1")); err == nil {
		t.Fatal("non-numeric index must error")
	}
	if _, err := ReadCSV(strings.NewReader("5,1;2")); err == nil {
		t.Fatal("out-of-order index must error")
	}
	if _, err := ReadCSV(strings.NewReader("0,a;b")); err == nil {
		t.Fatal("non-numeric syndrome must error")
	}
	d, err := ReadCSV(strings.NewReader("0,\n1,3;4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Syndromes) != 2 || len(d.Syndromes[0]) != 0 || len(d.Syndromes[1]) != 2 {
		t.Fatalf("parsed %+v", d.Syndromes)
	}
	_ = netlist.NoFault
}
