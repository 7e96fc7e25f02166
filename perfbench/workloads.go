package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/routing"
	"repro/internal/routing/cdg"
	"repro/internal/runner"
	"repro/internal/sl"
	"repro/internal/subnet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fabricParams sizes one simulation workload: a structured fabric
// filled with admitted QoS connections and best-effort background,
// simulated open loop (every flow injects on its own schedule) for a
// fixed simulated horizon.
type fabricParams struct {
	Spec      topology.Spec
	Model     fabric.SwitchModel
	Shards    int     // 0/1: one engine; >1: parallel conservative windows
	Load      float64 // QoS admission attempts per host
	BEMbps    float64 // best-effort background per host
	Payload   int     // packet payload bytes
	WarmupBT  int64   // simulated time before StartMeasurement
	HorizonBT int64   // measured simulated time after the warm-up
}

// churnParams sizes the connection-lifecycle workload: connections
// arrive with exponential gaps, hold for an exponential time and
// leave, every table delta travelling in-band as SMPs.
type churnParams struct {
	Spec       topology.Spec
	Payload    int
	Arrivals   int
	MeanGapBT  int64
	MeanHoldBT int64
	Retry      admission.RetryPolicy
}

// planParams is the capacity-planner query run on each workload's
// spec and load.  Queries repeats it at derived seeds, so that one
// repetition times enough planner work to average over the inputs.
type planParams struct {
	Spec        topology.Spec
	Load        float64
	HeadroomSL  uint8
	HeadroomMax int
	Queries     int
}

// outcome is one repetition of a workload: its host timings, its
// operation counts, and the simulated results the correctness gate
// and the digest check.  A repetition runs in a child process, which
// reports its outcome as JSON.
type outcome struct {
	Setup, Run, Plan time.Duration

	Attempted, Failed int // operations: one run, or one connection lifecycle
	Digest            digest
	GateErrs          []string // failed correctness checks: the outputs are wrong
	Open              []string // lifecycles still open at the cap: failed operations

	Layer    map[string]float64 // per-layer metrics, traced repetitions only
	MaxRSSMB float64            // the child's peak resident memory up to the end of the run
}

// peakRSSMB is the process's peak resident memory so far.  It is read
// when the simulated run ends, so that the planner queries and the
// gate's drain, which follow in the same process, do not count.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (o *outcome) fail(seed int64, err error) {
	o.GateErrs = append(o.GateErrs, fmt.Sprintf("seed %d: %v", seed, err))
}

// buildFabric runs the set-up every workload shares: generate the
// topology, compute and prove its routes, build the network.  Each call
// into a layer is a span of the tracer.  NewWithTopology computes its
// own copy of the routes; the gate proves that copy as well.
func buildFabric(spec topology.Spec, cfg func(switches int) fabric.Config, tr *tracer) (*fabric.Network, cdg.Stats, error) {
	tr.begin("topology.generate")
	topo, err := spec.Generate()
	tr.end()
	if err != nil {
		return nil, cdg.Stats{}, err
	}
	tr.begin("routing.compute")
	routes, err := routing.ComputeFor(topo)
	tr.end()
	if err != nil {
		return nil, cdg.Stats{}, err
	}
	tr.begin("cdg.verify")
	proof, err := cdg.Verify(topo, routes)
	tr.end()
	if err != nil {
		return nil, proof, err
	}
	tr.begin("fabric.build")
	net, err := fabric.NewWithTopology(cfg(topo.NumSwitches), topo)
	tr.end()
	return net, proof, err
}

// timedProgrammer is the admission.Programmer the benchmark installs
// around the real one, so every committed table delta is a span.
type timedProgrammer struct {
	next admission.Programmer
	tr   *tracer
}

func (p timedProgrammer) Program(id admission.PortID, pt *core.PortTable, d core.Delta) error {
	p.tr.begin("subnet.program")
	err := p.next.Program(id, pt, d)
	p.tr.end()
	return err
}

// runFabric is one repetition of a simulation workload.
func runFabric(p fabricParams, seed int64, tr *tracer, check bool) outcome {
	o := outcome{Attempted: 1}
	start := time.Now()
	net, proof, err := buildFabric(p.Spec, func(switches int) fabric.Config {
		cfg := fabric.DefaultConfig(switches, p.Payload, seed)
		cfg.SwitchModel = p.Model
		cfg.Shards = p.Shards
		return cfg
	}, tr)
	if err != nil {
		o.Failed = 1
		o.fail(seed, fmt.Errorf("set-up: %w", err))
		return o
	}
	if tr != nil {
		net.EnableMetrics()
		net.Adm.SetProgrammer(timedProgrammer{admission.DirectProgrammer{}, tr})
	}

	// The QoS fill and the background are pure functions of the
	// topology and the seed, as in the shardbench experiment, whose
	// stop rule (40 rejections in a row) the fill keeps.
	src := traffic.NewSource(sl.DefaultLevels, net.Topo.NumHosts(), seed+1)
	attempts := int(math.Ceil(p.Load * float64(net.Topo.NumHosts())))
	admitted, consecutive := 0, 0
	for i := 0; i < attempts && consecutive < 40; i++ {
		req := src.Next()
		tr.begin("admission.admit")
		conn, err := net.Adm.Admit(req)
		tr.end()
		if err != nil {
			consecutive++
			continue
		}
		consecutive = 0
		admitted++
		net.AddConnection(conn)
	}
	for _, be := range traffic.BestEffortBackground(net.Topo.NumHosts(), p.BEMbps, seed+2) {
		net.AddBestEffort(be)
	}
	net.Start()
	o.Setup = time.Since(start)

	gc := readGC()
	tr.startProfile()
	runStart := time.Now()
	tr.begin("fabric.run")
	net.Run(p.WarmupBT)
	net.StartMeasurement()
	net.Run(p.WarmupBT + p.HorizonBT)
	tr.end()
	o.Run = time.Since(runStart)
	tr.stopProfile()
	gcFrac := readGC().fracSince(gc)
	o.MaxRSSMB = peakRSSMB()

	injected, delivered, dropped := net.Totals()
	o.Digest = digest{Injected: injected, Delivered: delivered, Dropped: dropped,
		Events: net.ExecutedEvents(), DeadlineMetPct: deadlineMet(net)}

	if tr != nil {
		o.Layer = fabricLayers(net, tr, proof, o.Run, gcFrac)
		o.Layer["admission.reject_frac"] = float64(attempts-admitted) / float64(attempts)
	}

	// The gate runs outside every timed span.
	var errs []error
	if admitted == 0 || delivered == 0 {
		errs = append(errs, fmt.Errorf("admitted %d connections, delivered %d packets", admitted, delivered))
	}
	if check {
		errs = append(errs, gate(net, p.WarmupBT+p.HorizonBT, false)...)
	}
	for _, err := range errs {
		o.fail(seed, err)
		o.Failed = 1
	}
	return o
}

// deadlineMet is the percentage of measured QoS packets delivered
// within their end-to-end deadline.
func deadlineMet(net *fabric.Network) float64 {
	var met float64
	var total int64
	for _, f := range net.Flows() {
		if !f.QoS || f.Delay.Total() == 0 {
			continue
		}
		met += f.Delay.PercentMeetingDeadline() / 100 * float64(f.Delay.Total())
		total += f.Delay.Total()
	}
	if total == 0 {
		return 0
	}
	return 100 * met / float64(total)
}

// runPlan times the analytical planner once the simulated network is
// garbage, so every workload's queries start from the same heap state:
// plan.Evaluate plus plan.Headroom on the workload's spec and load, at
// Queries seeds derived from the run's seed.  plan_s is the mean per
// query; a failed query fails the repetition.
func (o *outcome) runPlan(pp planParams, seed int64, tr *tracer) {
	runtime.GC()
	opt := plan.Options{Payload: 512}
	start := time.Now()
	for q := 0; q < pp.Queries; q++ {
		s := runner.DeriveSeed(seed, q)
		tr.begin("plan.evaluate")
		_, err := plan.Evaluate(pp.Spec, pp.Load, s, opt)
		tr.end()
		if err == nil {
			tr.begin("plan.headroom")
			_, err = plan.Headroom(pp.Spec, pp.Load, s, opt, pp.HeadroomSL, pp.HeadroomMax)
			tr.end()
		}
		if err != nil {
			o.fail(seed, err)
			o.Failed = o.Attempted
			return
		}
	}
	o.Plan = time.Since(start) / time.Duration(pp.Queries)
	if tr != nil {
		st := tr.stats()
		perQueryMS := func(name string) float64 { return float64(st[name].total) / 1e6 / float64(pp.Queries) }
		o.Layer["plan.evaluate_ms"] = perQueryMS("plan.evaluate")
		o.Layer["plan.headroom_ms"] = perQueryMS("plan.headroom")
	}
}

// churnArrival is one pre-drawn connection lifecycle.
type churnArrival struct {
	at, hold int64
	req      traffic.Request
}

// drawArrivals draws every arrival time, hold time and request from
// the seed before the simulation starts, so the inputs do not depend
// on event interleaving.
func drawArrivals(p churnParams, hosts int, seed int64) []churnArrival {
	rng := rand.New(rand.NewSource(seed))
	src := traffic.NewSource(sl.DefaultLevels, hosts, seed+1)
	out := make([]churnArrival, p.Arrivals)
	t := int64(0)
	for i := range out {
		t += 1 + int64(rng.ExpFloat64()*float64(p.MeanGapBT))
		out[i] = churnArrival{at: t, hold: 1 + int64(rng.ExpFloat64()*float64(p.MeanHoldBT)), req: src.Next()}
	}
	return out
}

// churnDrainSlackBT is the simulated time allowed after the last
// arrival's admission window and the longest hold for the last release
// to drain and program: many MAD round trips and retry backoffs.
const churnDrainSlackBT = 1 << 20

// runChurn is one repetition of the churn workload.  It drives the
// lifecycle loop itself instead of calling experiments.Churn, whose
// per-event audit would dominate the host time; the same audit runs
// once at the end, outside the timed span.
func runChurn(p churnParams, seed int64, tr *tracer, check bool) outcome {
	o := outcome{Attempted: p.Arrivals}
	start := time.Now()
	net, proof, err := buildFabric(p.Spec, func(switches int) fabric.Config {
		return fabric.DefaultConfig(switches, p.Payload, seed)
	}, tr)
	if err != nil {
		o.Failed = p.Arrivals
		o.fail(seed, fmt.Errorf("set-up: %w", err))
		return o
	}
	if tr != nil {
		net.EnableMetrics()
	}
	m := subnet.NewManager(net.Topo)
	m.Routes = net.Routes
	prog := subnet.NewInbandProgrammer(net.Ctrl, m)
	if tr != nil {
		net.Adm.SetProgrammer(timedProgrammer{prog, tr})
	} else {
		net.Adm.SetProgrammer(prog)
	}

	arrivals := drawArrivals(p, net.Topo.NumHosts(), seed)
	var maxHold int64
	for _, a := range arrivals {
		maxHold = max(maxHold, a.hold)
	}
	capBT := arrivals[len(arrivals)-1].at + maxHold + churnDrainSlackBT

	// Each lifecycle ends once: rejected, or admitted and released.
	done := make([]bool, len(arrivals))
	outstanding := len(arrivals)
	var rejected int
	var latSum int64
	eng := net.Ctrl
	for i, arr := range arrivals {
		eng.At(arr.at, func() {
			tr.begin("admission.admit")
			net.Adm.AdmitWithRetry(eng, arr.req, p.Retry, func(conn *admission.Conn, err error) {
				latSum += eng.Now() - arr.at
				if err != nil {
					rejected++
					done[i] = true
					outstanding--
					return
				}
				tr.begin("fabric.attach")
				fl := net.AddConnection(conn)
				net.StartFlow(fl)
				tr.end()
				eng.After(arr.hold, func() {
					net.ReleaseConnection(conn, fl, func() {
						done[i] = true
						outstanding--
					})
				})
			})
			tr.end()
		})
	}
	net.StartMeasurement()
	o.Setup = time.Since(start)

	gc := readGC()
	tr.startProfile()
	runStart := time.Now()
	tr.begin("fabric.run")
	net.RunWhile(func() bool { return outstanding > 0 && net.Now() < capBT })
	tr.end()
	o.Run = time.Since(runStart)
	tr.stopProfile()
	gcFrac := readGC().fracSince(gc)
	o.MaxRSSMB = peakRSSMB()
	end := net.Now()

	injected, delivered, dropped := net.Totals()
	o.Digest = digest{Injected: injected, Delivered: delivered, Dropped: dropped,
		Events: net.ExecutedEvents(), DeadlineMetPct: deadlineMet(net),
		AdmitLatencyBT: float64(latSum) / float64(p.Arrivals)}

	if tr != nil {
		o.Layer = fabricLayers(net, tr, proof, o.Run, gcFrac)
		o.Layer["admission.reject_frac"] = float64(rejected) / float64(p.Arrivals)
		o.Layer["admission.admit_latency_bt"] = o.Digest.AdmitLatencyBT
		o.Layer["subnet.mads"] = float64(prog.Costs.MADs)
		o.Layer["subnet.program_time_bt"] = float64(prog.Costs.TimeBT)
	}

	// A lifecycle still open at the cap is a failed operation.
	for i, ok := range done {
		if !ok {
			o.Failed++
			o.Open = append(o.Open, fmt.Sprintf("seed %d: lifecycle %d (arrival %d BT, hold %d BT) still open at the %d BT cap",
				seed, i, arrivals[i].at, arrivals[i].hold, capBT))
		}
	}
	o.Digest.Open = o.Failed
	var errs []error
	if check {
		errs = gate(net, end, outstanding == 0)
	}
	for _, err := range errs {
		o.fail(seed, err)
	}
	if len(errs) > 0 {
		o.Failed = p.Arrivals // a failed check voids the whole batch
	}
	return o
}
