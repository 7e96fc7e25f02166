package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/routing/cdg"
)

// digest is the simulated output of one repetition.  The simulator is
// deterministic, so every repetition of one seed on one commit must
// produce the same digest, traced or not: the same packets, the same
// events and the same lifecycles left open at the cap.
type digest struct {
	Injected, Delivered, Dropped int64
	Events                       uint64
	DeadlineMetPct               float64
	AdmitLatencyBT               float64
	Open                         int
}

func (d digest) String() string {
	return fmt.Sprintf("injected=%d delivered=%d dropped=%d events=%d deadline_met_pct=%.6f admit_latency_bt=%.6f open=%d",
		d.Injected, d.Delivered, d.Dropped, d.Events, d.DeadlineMetPct, d.AdmitLatencyBT, d.Open)
}

// drainChunkBT and drainChunks bound the post-run drain: generation
// stops, and the fabric runs in chunks until every injected packet is
// accounted for.  Queues are a few packets per VL, so a drained fabric
// balances within a handful of chunks.
const (
	drainChunkBT = 20_000
	drainChunks  = 200
)

// gate runs the correctness checks on a network whose timed run ended
// at simulated time end: credit accounting, packet conservation after
// a drain, the deadlock-freedom proof of the routes the fabric used,
// the allocator invariants, and the paper's distance guarantee
// (MaxGap <= Stride for every sequence on every port).  When
// lifecycles reports that every connection lifecycle ended, the drain
// also waits for the last table programs to land, and every port must
// then be converged and no connection live.
func gate(net *fabric.Network, end int64, lifecyclesDone bool) []error {
	var errs []error
	if err := net.CheckBuffers(); err != nil {
		errs = append(errs, err)
	}
	net.StopGeneration()
	settled := func() error {
		if err := net.CheckConservation(); err != nil || !lifecyclesDone {
			return err
		}
		return converged(net.Adm.Ports())
	}
	t := end
	err := settled()
	for i := 0; i < drainChunks && err != nil; i++ {
		t += drainChunkBT
		net.Run(t)
		err = settled()
	}
	if err != nil {
		errs = append(errs, fmt.Errorf("after a %d BT drain: %w", t-end, err))
	}
	if lifecyclesDone && net.Adm.Live() != 0 {
		errs = append(errs, fmt.Errorf("%d connections live after every release", net.Adm.Live()))
	}
	if _, err := cdg.Verify(net.Topo, net.Routes); err != nil {
		errs = append(errs, err)
	}
	if err := net.Adm.CheckInvariants(); err != nil {
		errs = append(errs, err)
	}
	forEachPort(net.Adm.Ports(), func(id string, pt *core.PortTable) {
		shadow := pt.Allocator().Table()
		for _, s := range pt.Allocator().Sequences() {
			if g := shadow.MaxGap(s.VL); g > s.Stride {
				errs = append(errs, fmt.Errorf("%s VL %d max gap %d exceeds stride %d", id, s.VL, g, s.Stride))
			}
		}
	})
	return errs
}

// converged reports the first port that is mid-transaction or holds a
// shadow table its data plane has not adopted.
func converged(ports *admission.Ports) error {
	var err error
	forEachPort(ports, func(id string, pt *core.PortTable) {
		if err == nil && (pt.Programming() || pt.Dirty()) {
			err = fmt.Errorf("%s not converged (programming %v)", id, pt.Programming())
		}
	})
	return err
}

// forEachPort visits every output-port table of the fabric.
func forEachPort(ports *admission.Ports, fn func(id string, pt *core.PortTable)) {
	for h, pt := range ports.Host {
		fn(admission.HostPortID(h).String(), pt)
	}
	for s, row := range ports.Switch {
		for q, pt := range row {
			fn(admission.SwitchPortID(s, q).String(), pt)
		}
	}
}
