package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/fabric"
	"repro/internal/topology"
)

// workload is one named batch job.
type workload struct {
	name   string
	inputs string // the generated inputs, for the report
	run    func(seed int64, tr *tracer, check bool) outcome
}

// size scales the workloads: fullSize is the benchmark, reducedSize the
// self-check.
type size struct {
	fatK, shardedK       int
	horizonBT, shardedBT int64
	churnSwitches        int
	arrivals             int
	headroomMax          int
}

var (
	fullSize    = size{fatK: 8, shardedK: 16, horizonBT: 200_000, shardedBT: 100_000, churnSwitches: 16, arrivals: 5000, headroomMax: 4096}
	reducedSize = size{fatK: 4, shardedK: 4, horizonBT: 20_000, shardedBT: 20_000, churnSwitches: 4, arrivals: 60, headroomMax: 16}
)

// workloads lists the benchmark's workloads.  The planner query is
// Headroom for the big-bandwidth SL 9 with a ceiling no fabric here
// reaches, so every query bisects fully and its cost does not hinge on
// whether the seed hits the ceiling.  Queries scales the planner work
// of the small fabrics up to a few tenths of a second per repetition;
// churn's small queries vary in cost with their seed, so it takes
// enough of them that their mean barely moves from one run seed to
// the next.
func workloads(sz size) []workload {
	var out []workload
	for _, f := range []struct {
		name    string
		k       int
		model   fabric.SwitchModel
		shards  int
		horizon int64
		queries int
	}{
		{"wrr-fattree", sz.fatK, fabric.ModelWRR, 1, sz.horizonBT, 2},
		{"voq-fattree", sz.fatK, fabric.ModelVOQISLIP, 1, sz.horizonBT, 2},
		{"sharded-fattree", sz.shardedK, fabric.ModelWRR, 2, sz.shardedBT, 1},
	} {
		spec := topology.Spec{Class: topology.FatTree, K: f.k}
		fp := fabricParams{Spec: spec, Model: f.model, Shards: f.shards, Load: 2, BEMbps: 600, Payload: 512,
			WarmupBT: f.horizon / 4, HorizonBT: f.horizon}
		pp := planParams{Spec: spec, Load: fp.Load, HeadroomSL: 9, HeadroomMax: sz.headroomMax, Queries: f.queries}
		out = append(out, workload{
			name: f.name,
			inputs: fmt.Sprintf("%s, %v switches, %d shard(s), QoS load %g, %g Mbps/host best effort, %d B payload, %d+%d BT; %d planner queries",
				spec.Label(), fp.Model, fp.Shards, fp.Load, fp.BEMbps, fp.Payload, fp.WarmupBT, fp.HorizonBT, pp.Queries),
			run: func(seed int64, tr *tracer, check bool) outcome {
				o := runFabric(fp, seed, tr, check)
				o.runPlan(pp, seed, tr)
				return o
			},
		})
	}

	// The paper's irregular fabric (4 hosts per switch), with the
	// wiring seed the repository's other irregular experiments use.
	cp := churnParams{
		Spec:    topology.Spec{Class: topology.Irregular, Switches: sz.churnSwitches, Seed: 42},
		Payload: 512, Arrivals: sz.arrivals, MeanGapBT: 2048, MeanHoldBT: 65536,
		Retry: admission.DefaultRetryPolicy(),
	}
	// The planner's load for churn is the mean number of live
	// connection requests per host: hold / gap / hosts.
	hosts := 4 * sz.churnSwitches
	cpp := planParams{Spec: cp.Spec, Load: float64(cp.MeanHoldBT) / float64(cp.MeanGapBT) / float64(hosts),
		HeadroomSL: 9, HeadroomMax: sz.headroomMax, Queries: 32}
	out = append(out, workload{
		name: "churn-irregular",
		inputs: fmt.Sprintf("%s, %d arrivals, mean gap %d BT, mean hold %d BT, in-band programming, %d B payload; %d planner queries",
			cp.Spec.Label(), cp.Arrivals, cp.MeanGapBT, cp.MeanHoldBT, cp.Payload, cpp.Queries),
		run: func(seed int64, tr *tracer, check bool) outcome {
			o := runChurn(cp, seed, tr, check)
			o.runPlan(cpp, seed, tr)
			return o
		},
	})
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(fullSize) {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string, sz size) (workload, bool) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
