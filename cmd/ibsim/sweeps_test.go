package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tinyReport runs a sweep experiment at the tiny scale with the CLI's
// default flags on the given number of workers and returns its JSON
// report as -exp prints it (less plan's wall-clock timing block).
func tinyReport(t *testing.T, name string, workers int) []byte {
	t.Helper()
	e, ok := lookupSweep(name)
	if !ok {
		t.Fatalf("no sweep experiment %q", name)
	}
	var f sweepFlags
	f.register(flag.NewFlagSet(name, flag.ContinueOnError))
	f.workers = workers
	out, err := e.run("tiny", f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, out.report); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSweepGolden pins a sweep experiment's tiny-scale JSON against
// testdata/<name>.golden.json.  Every point is a pure function of its
// seed, so any diff is a real behavior or format change; regenerate
// deliberately with
//
//	go test ./cmd/ibsim -run JSONGolden -update
func checkSweepGolden(t *testing.T, name string) {
	t.Helper()
	got := tinyReport(t, name, 1)
	if bytes.Contains(got, []byte(`"timing"`)) {
		t.Fatal("golden encoding contains a wall-clock timing section")
	}
	checkGolden(t, filepath.Join("testdata", name+".golden.json"), got)
}

// checkSweepWorkers checks that a sweep experiment's tiny-scale JSON
// encodes byte-identically on 2, 4 and 8 workers as on one.
func checkSweepWorkers(t *testing.T, name string) {
	t.Helper()
	serial := tinyReport(t, name, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := tinyReport(t, name, workers); !bytes.Equal(got, serial) {
			t.Errorf("%s JSON depends on worker count: %d bytes at 1 worker, %d at %d",
				name, len(serial), len(got), workers)
		}
	}
}

func TestChurnJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepGolden(t, "churn")
}

func TestFaultsJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepGolden(t, "faults")
}

func TestFailoverJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepGolden(t, "failover")
}

func TestScaleJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepGolden(t, "scale")
}

func TestScaleJSONParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepWorkers(t, "scale")
}

// The plan model is analytical and fast, so its tests run in -short
// mode too.
func TestPlanJSONGolden(t *testing.T) { checkSweepGolden(t, "plan") }

func TestPlanJSONParallelIdentical(t *testing.T) { checkSweepWorkers(t, "plan") }

func TestHOLJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepGolden(t, "hol")
}

func TestHOLJSONParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepWorkers(t, "hol")
}

// TestSweepGoldensCovered keeps the list of golden tests above in step
// with the sweep table: every experiment must have a checked-in golden.
func TestSweepGoldensCovered(t *testing.T) {
	for _, e := range sweepExperiments {
		if _, err := os.Stat(filepath.Join("testdata", e.name+".golden.json")); err != nil {
			t.Errorf("sweep experiment %q: %v", e.name, err)
		}
	}
}

// TestScaleJSONShape checks the invariants scripts rely on: the sweep
// covers every (spec, load) point of the grid in order, every point
// carries a non-trivial acyclic channel-dependency graph, and the
// multi-plane dragonfly engine reports its escape plane.
func TestScaleJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var rep struct {
		Runs []struct {
			Label  string  `json:"label"`
			Load   float64 `json:"load"`
			Planes int     `json:"planes"`
			CDG    struct {
				Channels int `json:"Channels"`
				Routes   int `json:"Routes"`
			} `json:"cdg"`
			Admitted int `json:"admitted"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(tinyReport(t, "scale", 0), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	base := experiments.ScaleTiny()
	if want := len(base.Specs) * len(base.Loads); len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, spec := range base.Specs {
		for _, load := range base.Loads {
			r := rep.Runs[i]
			if r.Label != spec.Label() || r.Load != load {
				t.Errorf("run %d is (%s, %g), want (%s, %g)", i, r.Label, r.Load, spec.Label(), load)
			}
			if r.CDG.Channels == 0 || r.CDG.Routes == 0 {
				t.Errorf("run %d: empty channel-dependency graph: %+v", i, r.CDG)
			}
			if r.Admitted == 0 {
				t.Errorf("run %d admitted no connections", i)
			}
			i++
		}
	}
	for _, r := range rep.Runs {
		if r.Label == "dragonfly-a2p1h1" && r.Planes != 2 {
			t.Errorf("dragonfly reports %d planes, want 2", r.Planes)
		}
	}
}

// TestHOLJSONShape checks the invariants scripts rely on: the sweep
// covers every (spec, load, model) point of the grid in order, the
// models of a cell share one seed and offer the same admitted load,
// WRR rows carry no VOQ block while the input-queued rows do.
func TestHOLJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var rep struct {
		Runs []struct {
			Label    string  `json:"label"`
			Model    string  `json:"model"`
			Load     float64 `json:"load"`
			Seed     int64   `json:"seed"`
			Admitted int     `json:"admitted"`
			VOQ      *struct {
				SchedPasses int64 `json:"schedPasses"`
			} `json:"voq"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(tinyReport(t, "hol", 0), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	base := experiments.HOLTiny()
	want := len(base.Specs) * len(base.Loads) * len(base.Models)
	if len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, spec := range base.Specs {
		for _, load := range base.Loads {
			cellSeed := rep.Runs[i].Seed
			cellAdmitted := rep.Runs[i].Admitted
			for _, model := range base.Models {
				r := rep.Runs[i]
				if r.Label != spec.Label() || r.Load != load || r.Model != model.String() {
					t.Errorf("run %d is (%s, %s, %g), want (%s, %s, %g)",
						i, r.Label, r.Model, r.Load, spec.Label(), model, load)
				}
				if r.Seed != cellSeed {
					t.Errorf("run %d: seed %d differs within its cell (want %d) — models must see identical traffic",
						i, r.Seed, cellSeed)
				}
				if r.Admitted != cellAdmitted {
					t.Errorf("run %d: admitted %d differs within its cell (want %d)",
						i, r.Admitted, cellAdmitted)
				}
				isVOQ := model.String() != "wrr"
				if isVOQ && (r.VOQ == nil || r.VOQ.SchedPasses == 0) {
					t.Errorf("run %d (%s): missing or empty VOQ counters", i, r.Model)
				}
				if !isVOQ && r.VOQ != nil {
					t.Errorf("run %d (wrr): unexpected VOQ counters", i)
				}
				i++
			}
		}
	}
}

// TestPlanJSONShape checks the invariants scripts rely on: the sweep
// covers every (spec, load) point of the grid in order, every point
// admitted connections and evaluated lanes, the heavy load level is
// flagged unstable on every topology class, and the hot-lane list is
// bounded and utilization-sorted.
func TestPlanJSONShape(t *testing.T) {
	var rep struct {
		Runs []struct {
			Label          string  `json:"label"`
			Load           float64 `json:"load"`
			Admitted       int     `json:"admitted"`
			Lanes          int     `json:"lanes"`
			SaturatedLanes int     `json:"saturatedLanes"`
			Stable         bool    `json:"stable"`
			HotLanes       []struct {
				Port        string  `json:"port"`
				Utilization float64 `json:"utilization"`
			} `json:"hotLanes"`
			HeadroomLimit string `json:"headroomLimit"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(tinyReport(t, "plan", 0), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	base := experiments.PlanTiny()
	if want := len(base.Specs) * len(base.Loads); len(rep.Runs) != want {
		t.Fatalf("sweep has %d runs, want %d", len(rep.Runs), want)
	}
	i := 0
	for _, spec := range base.Specs {
		for _, load := range base.Loads {
			r := rep.Runs[i]
			if r.Label != spec.Label() || r.Load != load {
				t.Errorf("run %d is (%s, %g), want (%s, %g)", i, r.Label, r.Load, spec.Label(), load)
			}
			if r.Admitted == 0 {
				t.Errorf("run %d admitted no connections", i)
			}
			if r.Lanes == 0 {
				t.Errorf("run %d evaluated no lanes", i)
			}
			if load >= 1000 && r.Stable {
				t.Errorf("run %d (%s, load %g): heavy load reported stable", i, r.Label, load)
			}
			if r.Stable != (r.SaturatedLanes == 0) {
				t.Errorf("run %d: stable=%v with %d saturated lanes", i, r.Stable, r.SaturatedLanes)
			}
			if len(r.HotLanes) == 0 || len(r.HotLanes) > 8 {
				t.Errorf("run %d: %d hot lanes, want 1..8", i, len(r.HotLanes))
			}
			for j := 1; j < len(r.HotLanes); j++ {
				if r.HotLanes[j].Utilization > r.HotLanes[j-1].Utilization {
					t.Errorf("run %d: hot lanes not utilization-sorted at %d", i, j)
				}
			}
			for _, h := range r.HotLanes {
				if !strings.HasPrefix(h.Port, "host ") && !strings.HasPrefix(h.Port, "switch ") {
					t.Errorf("run %d: hot lane port label %q", i, h.Port)
				}
			}
			if r.HeadroomLimit == "" {
				t.Errorf("run %d: empty headroom limit", i)
			}
			i++
		}
	}
}

// TestFaultsJSONShape checks the invariants scripts rely on: the sweep
// covers the fault grid, its first point is fault-free with a clean
// control block, and the faulty points terminated every transaction.
func TestFaultsJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var rep struct {
		BaseSeed int64 `json:"baseSeed"`
		Runs     []struct {
			Drop    float64 `json:"drop"`
			Control struct {
				SMPsDropped int64 `json:"smpsDropped"`
				Retransmits int64 `json:"retransmits"`
			} `json:"control"`
			UnterminatedTxns int `json:"unterminatedTxns"`
			DirtySurvivors   int `json:"dirtySurvivors"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(tinyReport(t, "faults", 0), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(rep.Runs) < 3 {
		t.Fatalf("sweep has %d runs, want the full fault grid", len(rep.Runs))
	}
	if r := rep.Runs[0]; r.Drop != 0 || r.Control.SMPsDropped != 0 || r.Control.Retransmits != 0 {
		t.Errorf("control point not fault-free: %+v", r)
	}
	last := rep.Runs[len(rep.Runs)-1]
	if last.Drop == 0 || last.Control.SMPsDropped == 0 {
		t.Errorf("heaviest point dealt no faults: %+v", last)
	}
	for i, r := range rep.Runs {
		if r.UnterminatedTxns != 0 || r.DirtySurvivors != 0 {
			t.Errorf("run %d: termination audit nonzero: %+v", i, r)
		}
	}
}

// TestFailoverJSONShape checks the invariants scripts rely on: every
// point injected a schedule, repaired it with a CDG proof, and closed
// its packet accounting.
func TestFailoverJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var rep struct {
		Runs []struct {
			Schedule string `json:"schedule"`
			Control  struct {
				RepairsStarted   int64 `json:"repairsStarted"`
				RepairsCompleted int64 `json:"repairsCompleted"`
			} `json:"control"`
			RepairCDG struct {
				Channels int `json:"channels"`
			} `json:"repairCDG"`
			Injected  int64 `json:"injected"`
			Delivered int64 `json:"delivered"`
			Dropped   int64 `json:"dropped"`
			Lost      int64 `json:"lost"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(tinyReport(t, "failover", 0), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("sweep has %d runs, want one per topology class", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Schedule == "" {
			t.Errorf("run %d: no failure schedule", i)
		}
		if r.Control.RepairsCompleted < 2 || r.Control.RepairsStarted != r.Control.RepairsCompleted {
			t.Errorf("run %d: repairs %d/%d", i, r.Control.RepairsCompleted, r.Control.RepairsStarted)
		}
		if r.RepairCDG.Channels == 0 {
			t.Errorf("run %d: no post-repair CDG proof", i)
		}
		if r.Injected != r.Delivered+r.Dropped+r.Lost {
			t.Errorf("run %d: conservation hole: %d != %d+%d+%d",
				i, r.Injected, r.Delivered, r.Dropped, r.Lost)
		}
	}
}
