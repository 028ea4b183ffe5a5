package uarch

import (
	"errors"
	"testing"
)

// TestDegradedValidate pins the boundary behavior of the degraded-shape
// validation: every field accepts exactly [0,2] (a two-member redundant
// pair can lose zero, one, or both members), and anything outside that
// range is a typed DegradedError naming the offending field.
func TestDegradedValidate(t *testing.T) {
	set := func(field string, v int) Degraded {
		var d Degraded
		switch field {
		case "FEGroupsDisabled":
			d.FEGroupsDisabled = v
		case "IntGroupsDisabled":
			d.IntGroupsDisabled = v
		case "FPGroupsDisabled":
			d.FPGroupsDisabled = v
		case "IntIQHalvesDown":
			d.IntIQHalvesDown = v
		case "FPIQHalvesDown":
			d.FPIQHalvesDown = v
		case "LSQHalvesDown":
			d.LSQHalvesDown = v
		default:
			t.Fatalf("unknown field %q", field)
		}
		return d
	}
	fields := []string{
		"FEGroupsDisabled", "IntGroupsDisabled", "FPGroupsDisabled",
		"IntIQHalvesDown", "FPIQHalvesDown", "LSQHalvesDown",
	}
	for _, f := range fields {
		for _, tc := range []struct {
			v  int
			ok bool
		}{
			{-1, false}, // negative counts describe nothing
			{0, true},   // pristine
			{1, true},   // half lost — the paper's degraded modes
			{2, true},   // both lost: dead but representable (Dead() == true)
			{3, false},  // more halves down than exist
			{100, false},
		} {
			err := set(f, tc.v).Validate()
			if tc.ok && err != nil {
				t.Errorf("%s=%d: unexpected error %v", f, tc.v, err)
			}
			if !tc.ok {
				var de *DegradedError
				if !errors.As(err, &de) {
					t.Errorf("%s=%d: want *DegradedError, got %v", f, tc.v, err)
					continue
				}
				if de.Field != f || de.Value != tc.v {
					t.Errorf("%s=%d: error names %s=%d", f, tc.v, de.Field, de.Value)
				}
			}
		}
	}
}

// TestParamsValidateDegraded pins that Params.Validate surfaces the typed
// degraded error (Rescue machines) and still rejects degraded operation
// on the baseline design.
func TestParamsValidateDegraded(t *testing.T) {
	p := RescueParams()
	p.Degr.LSQHalvesDown = 3
	var de *DegradedError
	if err := p.Validate(); !errors.As(err, &de) {
		t.Fatalf("rescue with LSQHalvesDown=3: want *DegradedError, got %v", err)
	}

	p = RescueParams()
	p.Degr.IntIQHalvesDown = 2 // dead but valid
	if err := p.Validate(); err != nil {
		t.Fatalf("rescue with a dead-but-representable shape: %v", err)
	}
	if !p.Degr.Dead() {
		t.Fatal("IntIQHalvesDown=2 should report Dead")
	}

	p = DefaultParams()
	p.Degr.FEGroupsDisabled = 1
	if err := p.Validate(); err == nil {
		t.Fatal("baseline with degraded fields must not validate")
	}
}

// TestParamsValidateProgress pins the shapes that pass every other check
// but leave some stage no slot to move an instruction through, so the
// simulator would spin for ever: each is a typed ParamError naming its
// field, and the nearest shape that can make progress still validates.
func TestParamsValidateProgress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   func(*Params)
		field string // "" = must validate
	}{
		{"comp buf fills the int new half", func(p *Params) { p.CompBufSlots = p.IntIQSize / 2 }, "CompBufSlots"},
		{"comp buf fills the fp new half", func(p *Params) { p.FPIQSize = 24; p.CompBufSlots = 12 }, "CompBufSlots"},
		{"comp buf leaves one slot", func(p *Params) { p.FPIQSize = 24; p.CompBufSlots = 11 }, ""},
		{"no LSQ", func(p *Params) { p.LSQSize = 0 }, "LSQSize"},
		{"no ROB", func(p *Params) { p.ROBSize = 0 }, "ROBSize"},
		{"one ROB entry", func(p *Params) { p.ROBSize = 1 }, ""},
		{"no issue width", func(p *Params) { p.IssueWidth = 0 }, "IssueWidth"},
		{"no commit width", func(p *Params) { p.CommitWidth = 0 }, "CommitWidth"},
		{"negative frontend depth", func(p *Params) { p.FrontendDepth = -3 }, "FrontendDepth"},
		{"negative squash window", func(p *Params) { p.SquashWindow = -1 }, "SquashWindow"},
		{"zero squash window", func(p *Params) { p.SquashWindow = 0 }, ""},
		{"one-group frontend down", func(p *Params) { p.Ways = 2; p.Degr.FEGroupsDisabled = 1 }, "Ways"},
	} {
		p := RescueParams()
		tc.set(&p)
		err := p.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("%s: want *ParamError on %s, got %v", tc.name, tc.field, err)
		}
	}
}
