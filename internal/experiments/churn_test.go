package experiments

import "testing"

// TestChurnRuns is the smoke test: the tiny churn scenario must
// complete with every invariant intact, admit a useful fraction of
// the offered connections, release everything it admitted, and spend
// real control-plane work doing so.
func TestChurnRuns(t *testing.T) {
	res, err := Churn(ChurnTiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("churn admitted nothing")
	}
	if res.Admitted+res.RejectedCapacity+res.RejectedBusy != res.Offered {
		t.Errorf("outcomes %d+%d+%d != offered %d",
			res.Admitted, res.RejectedCapacity, res.RejectedBusy, res.Offered)
	}
	if res.Released != res.Admitted {
		t.Errorf("released %d != admitted %d", res.Released, res.Admitted)
	}
	if res.ProgramMADs == 0 || res.Reconfig.Swaps == 0 {
		t.Errorf("no in-band programming happened: %+v", res.Reconfig)
	}
	if res.Reconfig.TornAborts != 0 {
		t.Errorf("%d torn-table aborts; per-port transactions should serialize", res.Reconfig.TornAborts)
	}
	if res.EndTimeBT <= 0 {
		t.Error("simulation did not advance")
	}
}

// TestChurnSweepDeterminism is the regression gate for the churn
// pipeline: the sweep's JSON must be bit-identical whether it runs on
// one worker or many.  Everything downstream (goldens, paper tables)
// relies on this.
func TestChurnSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed churn sweep")
	}
	checkSweepWorkers(t, ChurnTiny().Grid(3), 2, 4, 8)
}
