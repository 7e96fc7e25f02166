package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes(" 8, 16,32 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSizes = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"8,x", "0", "8,-2", "1,0,4"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("bad size list %q accepted", bad)
		}
	}
}

func TestParamsPresets(t *testing.T) {
	for _, scale := range []string{"tiny", "quick", "full"} {
		p, err := params(scale)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		if p.Switches < 2 {
			t.Errorf("%s: switches = %d", scale, p.Switches)
		}
	}
	if _, err := params("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestUnknownExperimentErrorListsNames: a typo'd -exp must name every
// experiment the tool can run, not just reject the input.
func TestUnknownExperimentErrorListsNames(t *testing.T) {
	err := unknownExperimentError("scael")
	if err == nil {
		t.Fatal("no error for unknown experiment")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"scael"`) {
		t.Errorf("error %q does not echo the bad experiment name", msg)
	}
	for _, name := range experimentNames {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list experiment %q", msg, name)
		}
	}
	for _, required := range []string{"scale", "plan", "churn", "failover", "hol", "all", "table2"} {
		found := false
		for _, name := range experimentNames {
			if name == required {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("experimentNames is missing %q", required)
		}
	}
}

func TestPlanParamsPresets(t *testing.T) {
	tiny := preset("tiny", experiments.PlanTiny, experiments.PlanQuick)
	quick := preset("quick", experiments.PlanTiny, experiments.PlanQuick)
	if len(tiny.Specs) == 0 || len(tiny.Loads) == 0 {
		t.Fatal("tiny plan preset is empty")
	}
	if len(quick.Specs) == 0 || quick.HeadroomMax <= tiny.HeadroomMax {
		t.Errorf("quick plan preset should probe more headroom than tiny (%d vs %d)",
			quick.HeadroomMax, tiny.HeadroomMax)
	}
}

// TestPlanHeadroomSLRejected: a -plan-headroom-sl that names no
// service level is an error naming the flag, never silently replaced.
func TestPlanHeadroomSLRejected(t *testing.T) {
	e, ok := lookupSweep("plan")
	if !ok {
		t.Fatal("no plan experiment")
	}
	for _, v := range []int{-1, 16, 256, 999} {
		_, err := e.run("tiny", sweepFlags{headroomSL: v})
		if err == nil || !strings.Contains(err.Error(), "-plan-headroom-sl") {
			t.Errorf("-plan-headroom-sl %d: err = %v, want an error naming the flag", v, err)
		}
	}
}
