package experiments

import "testing"

// TestFailoverTinyConverges runs the tiny failover sweep and checks
// the invariants every point must satisfy beyond the run's own audits
// (which already error the point out on violation).
func TestFailoverTinyConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	res, err := Sweep(FailoverTiny().Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want one point per topology class, got %d", len(res))
	}
	for _, r := range res {
		if r.Schedule == "" {
			t.Errorf("%s: no failure schedule recorded", r.Label)
		}
		if r.Control.RepairsCompleted < 2 {
			t.Errorf("%s: only %d repairs completed", r.Label, r.Control.RepairsCompleted)
		}
		if r.DetectedKeys == 0 {
			t.Errorf("%s: failures never detected", r.Label)
		}
		if r.RepairCDG.Channels == 0 {
			t.Errorf("%s: no post-repair CDG proof", r.Label)
		}
		if r.Injected != r.Delivered+r.Dropped+r.Lost {
			t.Errorf("%s: conservation hole: injected %d != delivered %d + dropped %d + lost %d",
				r.Label, r.Injected, r.Delivered, r.Dropped, r.Lost)
		}
		if r.Control.RepairTime == nil || r.Control.RepairTime.N == 0 {
			t.Errorf("%s: no time-to-repair observation", r.Label)
		}
	}
}

// TestFailoverWorkerIdentity pins the sweep's determinism contract:
// the JSON encoding is byte-identical at any worker count.
func TestFailoverWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	checkSweepWorkers(t, FailoverTiny().Grid(), 2, 4, 8)
}
