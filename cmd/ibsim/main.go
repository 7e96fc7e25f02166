// Command ibsim runs the paper's evaluation experiments and prints the
// tables and figures of Alfaro, Sánchez and Duato (ICPP 2003).
//
// Usage:
//
//	ibsim -exp all                  # every table and figure, full scale
//	ibsim -exp table2 -scale quick  # one experiment, reduced scale
//	ibsim -exp scaling -sizes 8,16,32,64
//
// Paper experiments: table1, table2, figure4, figure5, figure6,
// ablation-priority, ablation-fill, ablation-vl, ablation-switch, vbr,
// reconfig, scaling, all.
//
// Sweep experiments print a table and a JSON report: churn, faults,
// failover, scale, plan, hol; shardbench benchmarks the sharded core.
//
//	ibsim -exp churn -churn-seeds 8   # connection churn with in-band
//	                                  # table reprogramming
//	ibsim -exp faults -scale tiny     # churn under injected SMP faults
//	ibsim -exp failover -scale tiny   # live link/switch failure with
//	                                  # verified deadlock-free repair
//	ibsim -exp scale -scale tiny      # structured fabrics (fat-tree,
//	                                  # dragonfly, irregular) under load
//	ibsim -exp plan -scale tiny       # analytical WRR capacity plan
//	                                  # (model-predicted, no simulation)
//	ibsim -exp hol -islip-iters 2     # WRR vs iSLIP vs MWM switch models
//	                                  # (head-of-line-blocking audit)
//	ibsim -exp shardbench -bench-shards 1,2,4
//	                                  # sharded-core throughput
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/viz"
)

func main() {
	var sf sweepFlags
	sf.register(flag.CommandLine)
	sf.timing = true
	var (
		exp         = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
		scale       = flag.String("scale", "full", "scale preset: tiny|quick|full")
		sizes       = flag.String("sizes", "8,16,32", "network sizes for -exp scaling")
		traces      = flag.Int("traces", 50, "request traces for -exp ablation-fill")
		asJSON      = flag.Bool("json", false, "emit the full evaluation as one JSON document (ignores -exp)")
		withViz     = flag.Bool("viz", false, "render figures 4 and 5 as terminal charts too")
		withMetrics = flag.Bool("metrics", false, "collect per-port arbitration metrics and append a JSON dump")
		traceEvents = flag.Int("trace", 0, "record the last N arbitration decisions per run (implies -metrics)")
		benchClass  = flag.String("bench-class", "fattree", "topology class for -exp shardbench: fattree|dragonfly")
		benchK      = flag.Int("bench-k", 8, "fat-tree arity for -exp shardbench")
		benchA      = flag.Int("bench-a", 16, "dragonfly switches per group for -exp shardbench")
		benchP      = flag.Int("bench-p", 8, "dragonfly hosts per switch for -exp shardbench")
		benchH      = flag.Int("bench-h", 8, "dragonfly global links per switch for -exp shardbench")
		benchShards = flag.String("bench-shards", "1,2,4,8", "shard counts for -exp shardbench")
		benchBT     = flag.Int64("bench-horizon", 0, "simulated horizon for -exp shardbench, byte times (0 = preset)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	runner.SetDefaultWorkers(sf.workers)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("creating -cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("starting CPU profile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(fmt.Errorf("creating -memprofile: %w", err))
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(fmt.Errorf("writing heap profile: %w", err))
			}
		}()
	}

	p, err := params(*scale)
	if err != nil {
		fatal(err)
	}
	override(&p.Seed, sf.seed)
	override(&p.Switches, sf.switches)
	p.Metrics = *withMetrics || *traceEvents > 0
	p.TraceEvents = *traceEvents
	p.Shards = sf.shards
	p.ShardDet = sf.shardDet

	start := time.Now()
	if *asJSON {
		if err := emitJSON(os.Stdout, p, *scale); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\n[json in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}
	switch *exp {
	case "table1":
		experiments.PrintTable1(os.Stdout)
	case "table2", "figure4", "figure5", "figure6", "all":
		ev := runEvaluation(p, *exp, *withViz)
		if p.Metrics {
			fmt.Println("Arbitration metrics (JSON):")
			if err := emitMetrics(os.Stdout, ev); err != nil {
				fatal(err)
			}
		}
	case "ablation-priority":
		res, err := experiments.AblationPrioritySplit(p.Seed)
		if err != nil {
			fatal(err)
		}
		experiments.PrintPrioritySplit(os.Stdout, res)
	case "ablation-fill":
		experiments.PrintFillPolicies(os.Stdout, experiments.AblationFillPolicies(*traces, p.Seed))
	case "ablation-vl":
		experiments.PrintVLCollapse(os.Stdout, experiments.AblationVLCollapse(p, []int{15, 8, 4}))
	case "ablation-switch":
		experiments.PrintSwitchModels(os.Stdout, experiments.AblationSwitchModels(p, []int{1, 2, 4}))
	case "vbr":
		experiments.PrintVBR(os.Stdout, experiments.AblationVBR(p.Seed, 4, 8, 4, 60))
	case "reconfig":
		res, err := experiments.Reconfiguration(p.Switches, p.Seed, 40*p.Switches)
		if err != nil {
			fatal(err)
		}
		experiments.PrintReconfig(os.Stdout, res)
	case "shardbench":
		bp := experiments.ShardBenchDefault()
		override(&bp.Seed, sf.seed)
		switch *benchClass {
		case "fattree":
			bp.Spec = topology.Spec{Class: topology.FatTree, K: *benchK}
		case "dragonfly":
			bp.Spec = topology.Spec{Class: topology.Dragonfly, A: *benchA, P: *benchP, H: *benchH}
		default:
			fatal(fmt.Errorf("unknown -bench-class %q (want fattree or dragonfly)", *benchClass))
		}
		if counts, err := parseSizes(*benchShards); err != nil {
			fatal(fmt.Errorf("-bench-shards: %w", err))
		} else {
			bp.Shards = counts
		}
		if *benchBT > 0 {
			bp.HorizonBT = *benchBT
		}
		res, err := experiments.ShardBench(bp)
		if err != nil {
			fatal(err)
		}
		experiments.PrintShardBench(os.Stdout, bp, res)
		fmt.Println()
		if err := emitShardBenchJSON(os.Stdout, bp, res); err != nil {
			fatal(err)
		}
	case "scaling":
		ns, err := parseSizes(*sizes)
		if err != nil {
			fatal(fmt.Errorf("-sizes: %w", err))
		}
		rows := experiments.Scaling(p, ns)
		experiments.PrintScaling(os.Stdout, rows)
		for _, r := range rows {
			if r.Err != nil {
				fatal(fmt.Errorf("scaling: %d switches: %w", r.Switches, r.Err))
			}
		}
	default:
		e, ok := lookupSweep(*exp)
		if !ok {
			fatal(unknownExperimentError(*exp))
		}
		out, err := e.run(*scale, sf)
		if err != nil {
			fatal(err)
		}
		out.print(os.Stdout)
		fmt.Println()
		if err := encodeIndented(os.Stdout, out.report); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "\n[%s in %v]\n", *exp, time.Since(start).Round(time.Millisecond))
}

// experimentNames enumerates every value -exp accepts, in the order
// the usage string and the unknown-experiment error present them.
var experimentNames = func() []string {
	names := []string{
		"table1", "table2", "figure4", "figure5", "figure6",
		"ablation-priority", "ablation-fill", "ablation-vl", "ablation-switch",
		"vbr", "reconfig", "scaling",
	}
	for _, e := range sweepExperiments {
		names = append(names, e.name)
	}
	return append(names, "shardbench", "all")
}()

// unknownExperimentError names the valid experiments, so a typo'd -exp
// tells the user what the tool can actually run.
func unknownExperimentError(exp string) error {
	return fmt.Errorf("unknown experiment %q (valid: %s)", exp, strings.Join(experimentNames, ", "))
}

// runEvaluation executes the paired small/large-packet simulation,
// prints the requested artifacts (or all of them), and returns the
// evaluation for optional metrics dumping.
func runEvaluation(p experiments.Params, which string, withViz bool) *experiments.Evaluation {
	ev, err := experiments.Evaluate(p)
	if err != nil {
		fatal(err)
	}
	printAll := which == "all"
	if printAll {
		experiments.PrintTable1(os.Stdout)
		fmt.Println()
	}
	if printAll || which == "table2" {
		experiments.PrintTable2(os.Stdout, ev.Table2())
		fmt.Println()
		experiments.PrintSLBreakdown(os.Stdout, "Small packets", ev.Small.SLBreakdown())
		fmt.Println()
	}
	if printAll || which == "figure4" {
		f4 := ev.Figure4()
		experiments.PrintFigure4(os.Stdout, "Figure 4a (small packets)", f4.Small)
		fmt.Println()
		experiments.PrintFigure4(os.Stdout, "Figure 4b (large packets)", f4.Large)
		fmt.Println()
		if withViz {
			fmt.Println("Figure 4b as CDF sparklines (thresholds D/32 .. D):")
			for _, s := range f4.Large {
				fmt.Println("  " + viz.CDFRow(fmt.Sprintf("SL %d", s.SL), s.Percent))
			}
			fmt.Println()
		}
	}
	if printAll || which == "figure5" {
		experiments.PrintFigure5(os.Stdout, "Figure 5 (small packets)", ev.Figure5())
		fmt.Println()
		experiments.PrintFigure5(os.Stdout, "Figure 5 (large packets)", experiments.Figure5For(ev.Large))
		fmt.Println()
		if withViz {
			fmt.Println("Figure 5 jitter histograms (buckets -IAT .. +IAT):")
			for _, s := range ev.Figure5() {
				fmt.Printf("  SL %d %s\n", s.SL, viz.Spark(s.Percent[:], 100))
			}
			fmt.Println()
		}
	}
	if printAll || which == "figure6" {
		experiments.PrintFigure6(os.Stdout, ev.Figure6())
		fmt.Println()
	}
	if printAll {
		res, err := experiments.AblationPrioritySplit(p.Seed)
		if err != nil {
			fatal(err)
		}
		experiments.PrintPrioritySplit(os.Stdout, res)
		fmt.Println()
		experiments.PrintFillPolicies(os.Stdout, experiments.AblationFillPolicies(50, p.Seed))
	}
	return ev
}

func params(scale string) (experiments.Params, error) {
	switch scale {
	case "tiny":
		return experiments.Tiny(), nil
	case "quick":
		return experiments.Quick(), nil
	case "full":
		return experiments.Full(), nil
	}
	return experiments.Params{}, fmt.Errorf("unknown scale %q", scale)
}

// parseSizes reads a comma-separated list of positive counts.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("bad size %q: must be at least 1", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibsim:", err)
	os.Exit(1)
}
