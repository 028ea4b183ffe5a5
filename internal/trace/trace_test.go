package trace

import (
	"bytes"
	"testing"

	"rescue/internal/isa"
	"rescue/internal/uarch"
	"rescue/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.Compile(prof).Gen()
	var ref []isa.Inst
	for i := 0; i < 20000; i++ {
		ref = append(ref, gen.Next())
	}

	var buf bytes.Buffer
	tw, err := NewWriter(&buf, ref[0].PC)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ref {
		if err := tw.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() != int64(len(ref)) {
		t.Fatalf("count = %d", tw.Count())
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref {
		got := tr.Next()
		if got != want {
			t.Fatalf("instruction %d: %+v != %+v", i, got, want)
		}
	}
	if tr.Done() {
		t.Fatal("reader done before reading past the end")
	}
	// past the end: NOPs, Done set, no error
	post := tr.Next()
	if post.Class != isa.NOP || !tr.Done() || tr.Err() != nil {
		t.Fatalf("tail: %+v done=%v err=%v", post, tr.Done(), tr.Err())
	}
}

func TestWriterRejectsBrokenChain(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(isa.Inst{PC: 0x1000, Class: isa.IntALU, Dest: 1, Src1: 2, Src2: 3}); err != nil {
		t.Fatal(err)
	}
	err = tw.Write(isa.Inst{PC: 0x9999, Class: isa.IntALU, Dest: 1, Src1: 2, Src2: 3})
	if err == nil {
		t.Fatal("broken PC chain accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notatrace....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("RS"))); err == nil {
		t.Fatal("short header accepted")
	}
}

// TestSimulatorOnTrace runs the performance simulator over a recorded
// trace and checks it commits the same way the generator run does.
func TestSimulatorOnTrace(t *testing.T) {
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Record(&buf, workload.Compile(prof).Gen(), 120000); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	simT, err := uarch.NewFromSource(uarch.RescueParams(), tr)
	if err != nil {
		t.Fatal(err)
	}
	stT := simT.Run(5_000, 50_000)

	simG, err := uarch.New(uarch.RescueParams(), prof)
	if err != nil {
		t.Fatal(err)
	}
	stG := simG.Run(5_000, 50_000)
	if stT != stG {
		t.Fatalf("trace-driven run diverged from generator run:\n%+v\n%+v", stT, stG)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
}

func TestCompactness(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	var buf bytes.Buffer
	const n = 50000
	if _, err := Record(&buf, workload.Compile(prof).Gen(), n); err != nil {
		t.Fatal(err)
	}
	perInst := float64(buf.Len()) / n
	if perInst > 10 {
		t.Fatalf("%.1f bytes/instruction — format regressed", perInst)
	}
}
