package fault

import (
	"bytes"
	"fmt"
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
		res := sim.Run(f, false)
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
	csv := d.CSV()
	if want := referenceCSV(d); string(csv) != want {
		t.Fatalf("CSV renders %d bytes that differ from the fmt rendering's %d", len(csv), len(want))
	}
	got, err := ReadCSV(bytes.NewReader(csv))
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

// referenceCSV is the dictionary's original per-observation fmt
// rendering, kept to pin CSV's bytes.
func referenceCSV(d *Dictionary) string {
	var sb strings.Builder
	for i, syn := range d.Syndromes {
		parts := make([]string, len(syn))
		for j, o := range syn {
			parts[j] = fmt.Sprintf("%d", o)
		}
		fmt.Fprintf(&sb, "%d,%s\n", i, strings.Join(parts, ";"))
	}
	return sb.String()
}

// TestReadCSVRejectsMalformed: every row that is not exactly what
// CSV emits is an error, never a silently trimmed syndrome.
func TestReadCSVRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"0,12x;-3;7\n1x,\n", // trailing text after a number
		"0,12x\n",
		"0,1;-3\n", // negative observation index
		"0x,1\n",   // trailing text after the index
		"0,1;;2\n", // empty entry
		"0,1;2;\n", // trailing separator
		"0,1 2\n",  // two numbers in one entry
		"0,1.5\n",  // not an integer
		"-1,1\n",   // negative index
		"0, 1\n",   // padded entry
	} {
		if d, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) accepted %v, want an error", in, d.Syndromes)
		}
	}
}
