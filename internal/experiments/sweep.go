package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fabric"
	"repro/internal/runner"
	"repro/internal/sl"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Point is one point of an experiment's sweep grid: a name for error
// reports, the seed the grid's seed rule assigned it, and the run that
// turns that seed into a result.
type Point[R any] struct {
	Name string
	Seed int64
	Run  func(seed int64) (R, error)
}

// Sweep runs every point of an experiment's grid on the runner pool
// (workers <= 0 selects the runner default) and fails on the first
// point error in grid order.  Results come back in grid order
// regardless of worker count, and every point's result is a pure
// function of its seed, so a sweep's JSON encoding is bit-identical at
// any parallelism.
func Sweep[R any](grid []Point[R], workers int) ([]R, error) {
	jobs := make([]runner.Job[R], len(grid))
	for i, pt := range grid {
		jobs[i] = runner.Job[R]{
			Name: pt.Name,
			Seed: pt.Seed,
			Run:  func(_ context.Context, seed int64) (R, error) { return pt.Run(seed) },
		}
	}
	results := runner.Sweep(context.Background(), jobs, runner.Options{Workers: workers})
	out := make([]R, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.Name, r.Err)
		}
		out[r.Index] = r.Value
	}
	return out, nil
}

// specLoadGrid crosses specs with loads, spec-major, and seeds point i
// with runner.DeriveSeed(base, i).
func specLoadGrid[R any](specs []topology.Spec, loads []float64, base int64,
	run func(spec topology.Spec, load float64, seed int64) (R, error)) []Point[R] {
	var grid []Point[R]
	for _, spec := range specs {
		for _, load := range loads {
			grid = append(grid, Point[R]{
				Name: fmt.Sprintf("%s-load%g", spec.Label(), load),
				Seed: runner.DeriveSeed(base, len(grid)),
				Run:  func(seed int64) (R, error) { return run(spec, load, seed) },
			})
		}
	}
	return grid
}

// offered is the traffic a load put on a fabric.
type offered struct {
	attempts, admitted, rejected int
	qos, be                      []*fabric.Flow
}

// offerLoad fills net the way every structured-fabric point does: up
// to ceil(load * hosts) QoS admission attempts from the source seeded
// seed+1 (load < 1 underfills the fabric, load > 1 pushes into
// rejection), stopping after maxRejects consecutive rejections, then
// the best-effort background at beMbps per host seeded seed+2.  The
// traffic depends only on (topology, seed), never on the switch model
// or shard mode, so points that differ only in those offer identical
// traffic.
func offerLoad(net *fabric.Network, load, beMbps float64, seed int64, maxRejects int) (offered, error) {
	var o offered
	hosts := net.Topo.NumHosts()
	src := traffic.NewSource(sl.DefaultLevels, hosts, seed+1)
	attempts := max(1, int(math.Ceil(load*float64(hosts))))
	consecutive := 0
	for o.attempts < attempts && consecutive < maxRejects {
		o.attempts++
		conn, err := net.Adm.Admit(src.Next())
		if err != nil {
			o.rejected++
			consecutive++
			continue
		}
		consecutive = 0
		o.admitted++
		o.qos = append(o.qos, net.AddConnection(conn))
	}
	if o.admitted == 0 {
		return o, fmt.Errorf("admitted no connections")
	}
	for _, be := range traffic.BestEffortBackground(hosts, beMbps, seed+2) {
		o.be = append(o.be, net.AddBestEffort(be))
	}
	return o, nil
}

// loadAndMeasure offers load (QoS fill plus best-effort background at
// load Mbps per host, see offerLoad), warms the fabric up for
// warmupIATs inter-arrival times of the slowest QoS connection, then
// measures until that connection has delivered quota packets — with a
// time cap so a defect cannot hang the run — and checks the buffers.
func loadAndMeasure(net *fabric.Network, load float64, seed int64, maxRejects int, warmupIATs, quota int64) (offered, error) {
	o, err := offerLoad(net, load, load, seed, maxRejects)
	if err != nil {
		return o, err
	}
	slowest := o.qos[0]
	for _, f := range o.qos[1:] {
		if f.IAT > slowest.IAT {
			slowest = f
		}
	}
	net.Start()
	warmup := warmupIATs * slowest.IAT
	net.Run(warmup)
	net.StartMeasurement()
	timeCap := warmup + (quota+8)*slowest.IAT*2
	net.RunWhile(func() bool {
		return slowest.Delivered.Packets < quota && net.Now() < timeCap
	})
	return o, net.CheckBuffers()
}

// delay merges the measured delay distributions of the QoS connections.
func (o offered) delay() *stats.DelayCDF {
	d := stats.NewDelayCDF()
	for _, f := range o.qos {
		d.Merge(f.Delay)
	}
	return d
}
