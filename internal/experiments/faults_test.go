package experiments

import "testing"

// TestFaultsTinyRecoveryWork: the tiny fault run must actually exercise
// the hardened control plane — lose SMPs, retransmit, quarantine — and
// still terminate with every surviving port converged (the run itself
// errors otherwise).
func TestFaultsTinyRecoveryWork(t *testing.T) {
	res, err := Faults(FaultsTiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.Released != res.Admitted {
		t.Errorf("admitted %d released %d, want equal and nonzero", res.Admitted, res.Released)
	}
	c := res.Control
	if c.SMPsDropped == 0 || c.Retransmits == 0 {
		t.Errorf("no loss/recovery work metered under 5%% drop: %+v", c)
	}
	if res.UnterminatedTxns != 0 || res.DirtySurvivors != 0 || res.GuaranteeViolations != 0 {
		t.Errorf("integrity audit nonzero: %+v", res)
	}
	if res.Injected.Queries == 0 {
		t.Error("injector was never consulted")
	}
}

// TestFaultsEveryTransactionTerminates is the property test: for any
// seed — and with it any injected fault sequence and flap schedule —
// the run ends with every transaction settled and active == shadow on
// all surviving hops.  Faults() returns an error on any violation, so
// the property is simply that the runs succeed.
func TestFaultsEveryTransactionTerminates(t *testing.T) {
	for _, seed := range []int64{2, 3, 5, 8, 13} {
		p := FaultsTiny()
		p.Churn.Seed = seed
		p.Churn.Arrivals = 40
		p.Drop = 0.08
		p.Corrupt = 0.04
		res, err := Faults(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.UnterminatedTxns != 0 || res.DirtySurvivors != 0 || res.GuaranteeViolations != 0 {
			t.Fatalf("seed %d: integrity audit nonzero: %+v", seed, res)
		}
	}
}

// TestFaultsSweepBitIdenticalAcrossWorkers: the fault sweep's entire
// JSON encoding must not depend on how many workers ran it.
func TestFaultsSweepBitIdenticalAcrossWorkers(t *testing.T) {
	base := FaultsTiny()
	base.Churn.Arrivals = 40
	checkSweepWorkers(t, base.Grid(), 2, 4, 8)
}

// TestFaultsFaultFreePointStillAudits: the sweep's control point (zero
// rates, zero flaps) runs the reliable machinery with nothing to
// recover from — no faults dealt, no retransmissions, no quarantines.
func TestFaultsFaultFreePointStillAudits(t *testing.T) {
	p := FaultsTiny()
	p.Churn.Arrivals = 40
	p.Drop, p.Duplicate, p.Corrupt, p.Reorder, p.Flaps = 0, 0, 0, 0, 0
	res, err := Faults(p)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Control
	if c.SMPsDropped != 0 || c.Retransmits != 0 || c.QuarantinedHops != 0 || c.DeadlineAborts != 0 {
		t.Errorf("fault-free run metered recovery work: %+v", c)
	}
	if res.RejectedDown != 0 || res.QuarantinedAtEnd != 0 {
		t.Errorf("fault-free run quarantined hops: %+v", res)
	}
}
