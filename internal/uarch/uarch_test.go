package uarch

import (
	"testing"

	"rescue/internal/workload"
)

func bench(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := RescueParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Ways = 3
	if err := p.Validate(); err == nil {
		t.Fatal("odd ways must fail")
	}
	p = DefaultParams()
	p.Degr.FEGroupsDisabled = 1
	if err := p.Validate(); err == nil {
		t.Fatal("degradation without Rescue must fail")
	}
}

func TestDeadConfigs(t *testing.T) {
	cases := []Degraded{
		{FEGroupsDisabled: 2},
		{IntGroupsDisabled: 2},
		{FPGroupsDisabled: 2},
		{IntIQHalvesDown: 2},
		{LSQHalvesDown: 2},
	}
	for _, d := range cases {
		if !d.Dead() {
			t.Errorf("%v should be dead", d)
		}
	}
	if (Degraded{FEGroupsDisabled: 1, IntGroupsDisabled: 1}).Dead() {
		t.Error("partial degradation should be alive")
	}
}

func TestBaselineRunsAndCommits(t *testing.T) {
	s, err := New(DefaultParams(), bench(t, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run(5000, 20000)
	if st.Committed < 20000 {
		t.Fatalf("committed %d", st.Committed)
	}
	ipc := st.IPC()
	if ipc <= 0.1 || ipc > 4.0 {
		t.Fatalf("gzip baseline IPC = %.3f, outside sane range", ipc)
	}
}

func TestRescueCloseToBaseline(t *testing.T) {
	for _, name := range []string{"gzip", "swim", "mcf"} {
		base, err := New(DefaultParams(), bench(t, name))
		if err != nil {
			t.Fatal(err)
		}
		resc, err := New(RescueParams(), bench(t, name))
		if err != nil {
			t.Fatal(err)
		}
		bi := base.Run(5000, 30000).IPC()
		ri := resc.Run(5000, 30000).IPC()
		if ri > bi*1.02 {
			t.Errorf("%s: rescue IPC %.3f exceeds baseline %.3f", name, ri, bi)
		}
		if ri < bi*0.75 {
			t.Errorf("%s: rescue IPC %.3f degrades baseline %.3f by >25%%", name, ri, bi)
		}
	}
}

func TestDegradedMonotonic(t *testing.T) {
	p := RescueParams()
	full, err := New(p, bench(t, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	fi := full.Run(5000, 30000).IPC()
	for _, d := range []Degraded{
		{FEGroupsDisabled: 1},
		{IntGroupsDisabled: 1},
		{IntIQHalvesDown: 1},
		{LSQHalvesDown: 1},
		{FEGroupsDisabled: 1, IntGroupsDisabled: 1, IntIQHalvesDown: 1},
	} {
		pd := RescueParams()
		pd.Degr = d
		s, err := New(pd, bench(t, "gzip"))
		if err != nil {
			t.Fatal(err)
		}
		di := s.Run(5000, 30000).IPC()
		if di > fi*1.03 {
			t.Errorf("degraded %v IPC %.3f above full %.3f", d, di, fi)
		}
		if di <= 0 {
			t.Errorf("degraded %v IPC = 0", d)
		}
	}
}

func TestDeadConfigRejected(t *testing.T) {
	p := RescueParams()
	p.Degr.FEGroupsDisabled = 2
	if _, err := New(p, bench(t, "gzip")); err == nil {
		t.Fatal("dead config must be rejected")
	}
}

func TestFPWorkloadUsesFPQueue(t *testing.T) {
	s, err := New(DefaultParams(), bench(t, "swim"))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run(2000, 20000)
	if st.Committed < 20000 {
		t.Fatalf("committed %d", st.Committed)
	}
}

func TestReplayPoliciesOrdering(t *testing.T) {
	// oracle >= smaller-half >= replay-all (roughly; allow small noise)
	ipcs := map[ReplayPolicy]float64{}
	for _, pol := range []ReplayPolicy{ReplaySmallerHalf, ReplayAll, OracleCombine} {
		p := RescueParams()
		p.ReplayPolicy = pol
		s, err := New(p, bench(t, "crafty"))
		if err != nil {
			t.Fatal(err)
		}
		ipcs[pol] = s.Run(5000, 30000).IPC()
	}
	if ipcs[OracleCombine] < ipcs[ReplaySmallerHalf]*0.98 {
		t.Errorf("oracle %.3f < smaller-half %.3f", ipcs[OracleCombine], ipcs[ReplaySmallerHalf])
	}
	if ipcs[ReplayAll] > ipcs[OracleCombine]*1.02 {
		t.Errorf("replay-all %.3f > oracle %.3f", ipcs[ReplayAll], ipcs[OracleCombine])
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		s, err := New(RescueParams(), bench(t, "vpr"))
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(2000, 10000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestWedgeDetectedImmediately pins the fast path's wedge check: a machine
// that goes idle with nothing pending panics at once instead of spinning
// to the cycle limit. No valid shape wedges, so the test breaks one after
// construction.
func TestWedgeDetectedImmediately(t *testing.T) {
	s, err := New(RescueParams(), bench(t, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	s.P.CommitWidth = 0
	defer func() {
		if r := recover(); r != wedgedPanic {
			t.Fatalf("recovered %v, want %q", r, wedgedPanic)
		}
		if s.now > 1_000_000 {
			t.Fatalf("wedge detected only at cycle %d", s.now)
		}
	}()
	s.Run(0, 100)
}
