package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"repro/internal/experiments"
	"repro/internal/sl"
)

// sweepFlags are the command-line flags the sweep experiments share.
type sweepFlags struct {
	seed       int64 // 0 keeps the preset's
	switches   int   // 0 keeps the preset's
	shards     int
	shardDet   bool
	churnSeeds int
	islipIters int
	headroomSL int
	workers    int

	// timing adds plan's wall-clock timing block to its report.  The
	// CLI sets it; the goldens, being deterministic, leave it off.
	timing bool
}

func (f *sweepFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&f.seed, "seed", 0, "override random seed (0 keeps the preset's)")
	fs.IntVar(&f.switches, "switches", 0, "override network size (0 keeps the preset's)")
	fs.IntVar(&f.shards, "shards", 0, "partition each fabric into N shards simulated in conservative-lookahead windows (0/1 = classic single engine)")
	fs.BoolVar(&f.shardDet, "shard-det", false, "keep all shards on one engine: bit-identical output at any -shards count, no parallel speedup")
	fs.IntVar(&f.churnSeeds, "churn-seeds", 4, "independent seeds for -exp churn")
	fs.IntVar(&f.islipIters, "islip-iters", 0, "iSLIP iteration depth for -exp hol (0 = default)")
	fs.IntVar(&f.headroomSL, "plan-headroom-sl", 4, "service level the -exp plan headroom bisection probes")
	fs.IntVar(&f.workers, "parallel", 0, "worker goroutines for sweeps (0 = GOMAXPROCS)")
}

// override replaces *v by a non-zero flag value.
func override[T int | int64](v *T, flagValue T) {
	if flagValue != 0 {
		*v = flagValue
	}
}

// sweepOutput is a finished sweep: its text table and its JSON report.
type sweepOutput struct {
	print  func(io.Writer)
	report any
}

// sweepExperiment is one structured sweep experiment of -exp.  run
// takes the experiment's preset for scale (tiny, or quick otherwise),
// applies the shared flags, sweeps its grid and returns the output.
type sweepExperiment struct {
	name string
	run  func(scale string, f sweepFlags) (sweepOutput, error)
}

// sweepExperiments lists the sweep experiments in the order -exp
// names them.  Each has a golden at testdata/<name>.golden.json.
var sweepExperiments = []sweepExperiment{
	{"churn", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.ChurnTiny, experiments.ChurnQuick)
		override(&p.Seed, f.seed)
		override(&p.Switches, f.switches)
		p.Shards, p.ShardDet = f.shards, f.shardDet
		return sweep(p.Grid(f.churnSeeds), f, experiments.PrintChurn, func(res []experiments.ChurnResult) any {
			return churnReport{Switches: p.Switches, BaseSeed: p.Seed, Arrivals: p.Arrivals, Runs: res}
		})
	}},
	{"faults", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.FaultsTiny, experiments.FaultsQuick)
		override(&p.Churn.Seed, f.seed)
		override(&p.Churn.Switches, f.switches)
		p.Churn.Shards, p.Churn.ShardDet = f.shards, f.shardDet
		return sweep(p.Grid(), f, experiments.PrintFaults, func(res []experiments.FaultsResult) any {
			return faultsReport{Switches: p.Churn.Switches, BaseSeed: p.Churn.Seed, Arrivals: p.Churn.Arrivals, Runs: res}
		})
	}},
	{"failover", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.FailoverTiny, experiments.FailoverQuick)
		override(&p.Seed, f.seed)
		p.Shards = f.shards
		return sweep(p.Grid(), f, experiments.PrintFailover, func(res []experiments.FailoverResult) any {
			return failoverReport{BaseSeed: p.Seed, Payload: p.Payload, Conns: p.Conns, FailAtBT: p.FailAtBT, Runs: res}
		})
	}},
	{"scale", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.ScaleTiny, experiments.ScaleQuick)
		override(&p.Seed, f.seed)
		p.Shards, p.ShardDet = f.shards, f.shardDet
		return sweep(p.Grid(), f, experiments.PrintScale, func(res []experiments.ScaleResult) any {
			return scaleReport{BaseSeed: p.Seed, Loads: p.Loads, Payload: p.Payload, Runs: res}
		})
	}},
	{"plan", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.PlanTiny, experiments.PlanQuick)
		override(&p.Seed, f.seed)
		if err := checkServiceLevel(f.headroomSL); err != nil {
			return sweepOutput{}, fmt.Errorf("-plan-headroom-sl: %w", err)
		}
		p.HeadroomSL = uint8(f.headroomSL)
		return sweep(p.Grid(), f, experiments.PrintPlan, func(res []experiments.PlanResult) any {
			rep := planReport{BaseSeed: p.Seed, Loads: p.Loads, Payload: p.Payload,
				HeadroomSL: p.HeadroomSL, HeadroomMax: p.HeadroomMax, Runs: res}
			if f.timing {
				rep.Timing = &planTiming{PointMicros: make([]int64, len(res))}
				for i, r := range res {
					rep.Timing.PointMicros[i] = r.ModelMicros
					rep.Timing.TotalMicros += r.ModelMicros
				}
			}
			return rep
		})
	}},
	{"hol", func(scale string, f sweepFlags) (sweepOutput, error) {
		p := preset(scale, experiments.HOLTiny, experiments.HOLQuick)
		override(&p.Seed, f.seed)
		p.ISLIPIters = f.islipIters
		p.Shards, p.ShardDet = f.shards, f.shardDet
		return sweep(p.Grid(), f, experiments.PrintHOL, func(res []experiments.HOLResult) any {
			return holReport{BaseSeed: p.Seed, Loads: p.Loads, Payload: p.Payload, ISLIPIters: p.ISLIPIters, Runs: res}
		})
	}},
}

// lookupSweep finds a sweep experiment by its -exp name.
func lookupSweep(name string) (sweepExperiment, bool) {
	for _, e := range sweepExperiments {
		if e.name == name {
			return e, true
		}
	}
	return sweepExperiment{}, false
}

// preset maps a scale preset onto a sweep experiment: tiny is the
// golden-file scale, anything else the experiment's quick CLI default.
func preset[P any](scale string, tiny, quick func() P) P {
	if scale == "tiny" {
		return tiny()
	}
	return quick()
}

// sweep runs grid with the flags' worker count and pairs the results
// with the experiment's table printer and JSON report.
func sweep[R any](grid []experiments.Point[R], f sweepFlags, printTable func(io.Writer, []R), report func([]R) any) (sweepOutput, error) {
	res, err := experiments.Sweep(grid, f.workers)
	if err != nil {
		return sweepOutput{}, err
	}
	return sweepOutput{print: func(w io.Writer) { printTable(w, res) }, report: report(res)}, nil
}

// checkServiceLevel accepts only the service levels the traffic model
// defines.
func checkServiceLevel(v int) error {
	if v < 0 || v > math.MaxUint8 {
		return fmt.Errorf("service level %d out of range", v)
	}
	_, err := sl.ByID(sl.DefaultLevels, uint8(v))
	return err
}

// churnReport is the machine-readable form of a churn sweep.
type churnReport struct {
	Switches int                       `json:"switches"`
	BaseSeed int64                     `json:"baseSeed"`
	Arrivals int                       `json:"arrivals"`
	Runs     []experiments.ChurnResult `json:"runs"`
}

// faultsReport is the machine-readable form of a fault sweep.
type faultsReport struct {
	Switches int                        `json:"switches"`
	BaseSeed int64                      `json:"baseSeed"`
	Arrivals int                        `json:"arrivals"`
	Runs     []experiments.FaultsResult `json:"runs"`
}

// failoverReport is the machine-readable form of a live-failure
// recovery sweep.
type failoverReport struct {
	BaseSeed int64                        `json:"baseSeed"`
	Payload  int                          `json:"payload"`
	Conns    int                          `json:"conns"`
	FailAtBT int64                        `json:"failAtBT"`
	Runs     []experiments.FailoverResult `json:"runs"`
}

// scaleReport is the machine-readable form of a structured-fabric
// scale sweep.
type scaleReport struct {
	BaseSeed int64                     `json:"baseSeed"`
	Loads    []float64                 `json:"loads"`
	Payload  int                       `json:"payload"`
	Runs     []experiments.ScaleResult `json:"runs"`
}

// planReport is the machine-readable form of an analytical
// capacity-planning sweep.
type planReport struct {
	BaseSeed    int64                    `json:"baseSeed"`
	Loads       []float64                `json:"loads"`
	Payload     int                      `json:"payload"`
	HeadroomSL  uint8                    `json:"headroomSL"`
	HeadroomMax int                      `json:"headroomMax"`
	Runs        []experiments.PlanResult `json:"runs"`

	// Timing is wall-clock and therefore nondeterministic; the golden
	// files and the worker-identity test omit it (sweepFlags.timing).
	Timing *planTiming `json:"timing,omitempty"`
}

// planTiming logs the model's evaluation wall-clock per grid point —
// the evidence behind the paper-reproduction claim that the plan
// answers in microseconds what the simulator answers in minutes.
type planTiming struct {
	PointMicros []int64 `json:"pointMicros"`
	TotalMicros int64   `json:"totalMicros"`
}

// holReport is the machine-readable form of a HOL-blocking
// switch-model sweep.
type holReport struct {
	BaseSeed   int64                   `json:"baseSeed"`
	Loads      []float64               `json:"loads"`
	Payload    int                     `json:"payload"`
	ISLIPIters int                     `json:"islipIters"`
	Runs       []experiments.HOLResult `json:"runs"`
}
