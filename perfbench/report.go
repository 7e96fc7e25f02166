package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"text/tabwriter"
)

// layerMetrics are the per-layer metrics of a traced run, named
// <module>.<metric>, each with its unit and, for a ratio or a mean,
// its base.
var layerMetrics = []struct{ name, unit, base string }{
	{"topology.generate_ms", "ms", "Spec.Generate span"},
	{"routing.compute_ms", "ms", "routing.ComputeFor span"},
	{"cdg.verify_ms", "ms", "cdg.Verify span"},
	{"cdg.channels", "count", "channels in the proved dependency graph"},
	{"fabric.build_ms", "ms", "fabric.NewWithTopology span"},
	{"admission.admits", "count", "admission calls timed"},
	{"admission.admit_us", "us", "self time per admission call, programming excluded"},
	{"admission.reject_frac", "ratio", "rejected / admission requests"},
	{"admission.admit_latency_bt", "BT", "simulated arrival-to-outcome time per lifecycle"},
	{"core.table_moves", "count", "defragmentation moves, all ports"},
	{"core.swaps", "count", "versioned table swaps, all ports"},
	{"core.stale_picks", "count", "picks made under a stale table version"},
	{"subnet.programs", "count", "Programmer.Program calls"},
	{"subnet.program_us", "us", "self time per Program call"},
	{"subnet.mads", "count", "SMPs sent in-band"},
	{"subnet.program_time_bt", "BT", "simulated SMP round-trip time, summed"},
	{"sim.events", "count", "events executed in the timed run"},
	{"sim.ns_per_event", "ns", "run host time / events"},
	{"sim.max_heap_depth", "count", "deepest pending-event heap of shard 0 or the control lane"},
	{"sim.self_frac", "ratio", "profiled run CPU with innermost frame in sim"},
	{"sim.windows", "count", "coordinator windows"},
	{"sim.barriers", "count", "coordinator barriers"},
	{"sim.events_per_window", "count", "events / windows"},
	{"fabric.pkt_hops", "count", "packets sent over a link, all output ports"},
	{"fabric.ns_per_hop", "ns", "run host time / packet hops"},
	{"fabric.delivered", "count", "packets delivered in the timed run"},
	{"fabric.events_per_delivered", "count", "events / delivered packets"},
	{"fabric.self_frac", "ratio", "profiled run CPU with innermost frame in fabric"},
	{"fabric.voq_passes", "count", "VOQ crossbar scheduling passes"},
	{"fabric.voq_match_per_pass", "count", "matched input-output pairs / passes"},
	{"fabric.hol_stalls", "count", "backlogged inputs left unmatched"},
	{"arbtable.picks", "count", "arbiter picks that chose a VL"},
	{"arbtable.entries_per_pick", "count", "table entries visited / picks"},
	{"arbtable.stall_frac", "ratio", "empty passes / (picks + empty passes)"},
	{"arbtable.self_frac", "ratio", "profiled run CPU with innermost frame in arbtable"},
	{"plan.evaluate_ms", "ms", "plan.Evaluate span"},
	{"plan.headroom_ms", "ms", "plan.Headroom span"},
	{"runtime.gc_frac", "ratio", "GC CPU / busy CPU during the run"},
	{"runtime.nproc", "count", "CPUs the host offers"},
	{"runtime.gomaxprocs", "count", "GOMAXPROCS"},
	{"trace.overhead_s", "s", "median traced run_s - median untraced run_s"},
}

// report prints the human-readable account of a run: the inputs, the
// per-repetition spread, the digest, every failure, and the per-layer
// table of a traced run.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  nproc %d  GOMAXPROCS %d  repetitions %d untraced, %d traced\n",
		r.workload.name, r.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(r.plain), len(r.withTrace))
	fmt.Fprintf(w, "inputs: %s\n", r.workload.inputs)
	fmt.Fprintf(w, "digest: %v\n", r.plain[0].Digest)
	if r.digestErr != "" {
		fmt.Fprintf(w, "FAILED: %s\n", r.digestErr)
	}
	// Repetitions of one seed repeat their failures; print each once.
	seen := map[string]int{}
	var order []string
	for _, o := range r.outcomes() {
		for _, f := range append(append([]string(nil), o.GateErrs...), o.Open...) {
			if seen[f] == 0 {
				order = append(order, f)
			}
			seen[f]++
		}
	}
	for i, f := range order {
		if i == 10 {
			fmt.Fprintf(w, "FAILED: ... %d distinct failures in all\n", len(order))
			break
		}
		fmt.Fprintf(w, "FAILED: %s (in %d of %d repetitions)\n", f, seen[f], len(r.outcomes()))
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "end-to-end (untraced)\tmin\tq1\tmedian\tq3\tunit\tn")
	for _, e := range endToEnd {
		v := collect(r.plain, e.of)
		q1, q2, q3 := quartiles(v)
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.6g\t%s\t%d\n", e.name, slices.Min(v), q1, q2, q3, e.unit, len(v))
	}
	tw.Flush()
	if !r.traced {
		return
	}
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer (traced median)\tvalue\tunit\tbase")
	for _, l := range layerMetrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", l.name, r.layerValue(l.name), l.unit, l.base)
	}
	tw.Flush()
}
