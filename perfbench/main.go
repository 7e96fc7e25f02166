// Command perfbench is the repository's benchmark.  Each workload is a
// batch job of fixed size: a fabric built from a generated spec and
// seed, offered open-loop traffic (or connection lifecycles), and
// simulated to a fixed simulated horizon or until its lifecycles end.
// A run repeats the job for the requested host seconds, checks every
// repetition's outputs, and prints the medians.  With -trace 1 it
// alternates untraced and traced repetitions and prints the per-layer
// metrics instead.
//
// Every time is host time (what the simulator costs) unless its name
// ends in _bt, which is simulated time in byte times.
//
//	go run . -workload wrr-fattree -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest repetitions of each kind a run makes, however
// long they take, so that every reported median has a middle.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 7, "workload seed: traffic, admission requests and arrivals derive from it")
	seconds := flag.Float64("seconds", 10, "host seconds to repeat the workload for")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced repetitions")
	reduced := flag.Bool("reduced", false, "run the reduced-size inputs of the self-check")
	child := flag.String("child", "", "run one repetition and print its outcome as JSON: `run`, or gate to also run the full correctness gate")
	flag.Parse()

	sz := fullSize
	if *reduced {
		sz = reducedSize
	}
	w, ok := findWorkload(*name, sz)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child != "" {
		var tr *tracer
		if *trace == 1 {
			tr = newTracer()
		}
		if err := json.NewEncoder(os.Stdout).Encode(w.run(*seed, tr, *child == "gate")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	res := measure(w, os.Args[1:], *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	res.report(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is everything one run measured.
type result struct {
	workload workload
	seed     int64
	traced   bool

	plain, withTrace []outcome
	digestErr        string
}

// measure repeats the workload until the budget is spent, each
// repetition in a fresh child process so that its peak memory is its
// own and no repetition inherits another's heap.  The first repetition
// also runs the full correctness gate; the others must reproduce its
// digest.  A traced run alternates untraced and traced repetitions, so
// that the tracing overhead compares repetitions made under the same
// conditions.
func measure(w workload, args []string, seed int64, budget time.Duration, traced bool) *result {
	r := &result{workload: w, seed: seed, traced: traced}
	start := time.Now()
	for time.Since(start) < budget || len(r.plain) < minReps || (traced && len(r.withTrace) < minReps) {
		mode := "run"
		if len(r.plain) == 0 {
			mode = "gate"
		}
		r.plain = append(r.plain, repetition(args, mode, 0))
		if traced {
			r.withTrace = append(r.withTrace, repetition(args, "run", 1))
		}
	}
	all := r.outcomes()
	for _, o := range all[1:] {
		if o.Digest != all[0].Digest {
			r.digestErr = fmt.Sprintf("digest differs between repetitions of seed %d: %v vs %v", seed, all[0].Digest, o.Digest)
			break
		}
	}
	return r
}

// repetition runs one repetition in a child process: this program,
// with the run's own flags followed by the repetition's (the last
// setting of a flag wins).  A child that fails counts as one failed
// operation with incorrect output.
func repetition(args []string, mode string, trace int) outcome {
	exe, err := os.Executable()
	if err != nil {
		return outcome{Attempted: 1, Failed: 1, GateErrs: []string{err.Error()}}
	}
	cmd := exec.Command(exe, append(append([]string(nil), args...),
		"-child", mode, "-trace", strconv.Itoa(trace))...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var o outcome
	if err == nil {
		err = json.Unmarshal(out, &o)
	}
	if err != nil {
		return outcome{Attempted: 1, Failed: 1, GateErrs: []string{fmt.Sprintf("child process: %v", err)}}
	}
	return o
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output: the machine-readable result.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) outcomes() []outcome {
	return append(append([]outcome(nil), r.plain...), r.withTrace...)
}

// summary counts the batch's operations once: a run attempts the
// operations of its seed's batch, and the repetitions only time them
// again.  Failed is what the first repetition, the one that runs the
// gate, found failed; every later repetition must reproduce it (the
// digest holds the open lifecycles).  A repetition that fails a check
// of its own, or does not reproduce the digest, voids the whole batch.
func (r *result) summary() summary {
	first := r.plain[0]
	s := summary{Correct: r.digestErr == "", Attempted: first.Attempted, Failed: first.Failed,
		Metrics: map[string]metric{}}
	for _, o := range r.outcomes() {
		if len(o.GateErrs) > 0 {
			s.Correct = false
		}
	}
	if !s.Correct {
		s.Failed = s.Attempted
	}
	if r.traced {
		for _, l := range layerMetrics {
			s.Metrics[l.name] = metric{r.layerValue(l.name), l.unit}
		}
	} else {
		for _, e := range endToEnd {
			s.Metrics[e.name] = metric{median(collect(r.plain, e.of)), e.unit}
		}
	}
	return s
}

// endToEnd are the metrics a user of the simulator sees, each taken per
// repetition and reported as the median.
var endToEnd = []struct {
	name, unit string
	of         func(o outcome) float64
}{
	{"setup_s", "s", func(o outcome) float64 { return o.Setup.Seconds() }},
	{"run_s", "s", func(o outcome) float64 { return o.Run.Seconds() }},
	{"delivered_per_s", "1/s", func(o outcome) float64 { return perSecond(o.Digest.Delivered, o.Run) }},
	{"churn_ops_per_s", "1/s", func(o outcome) float64 { return perSecond(int64(o.Attempted-o.Failed), o.Run) }},
	{"plan_s", "s", func(o outcome) float64 { return o.Plan.Seconds() }},
	{"max_rss_mb", "MB", func(o outcome) float64 { return o.MaxRSSMB }},
	{"deadline_met_pct", "%", func(o outcome) float64 { return o.Digest.DeadlineMetPct }},
}

// perSecond is a count per host second; zero for a repetition that
// never ran, so that a failed child cannot make the result unprintable.
func perSecond(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// layerValue is the median of one per-layer metric over the traced
// repetitions, or a figure derived from the whole run.
func (r *result) layerValue(name string) float64 {
	switch name {
	case "trace.overhead_s":
		run := func(o outcome) float64 { return o.Run.Seconds() }
		return median(collect(r.withTrace, run)) - median(collect(r.plain, run))
	case "runtime.gomaxprocs":
		return float64(runtime.GOMAXPROCS(0))
	case "runtime.nproc":
		return float64(runtime.NumCPU())
	}
	return median(collect(r.withTrace, func(o outcome) float64 { return o.Layer[name] }))
}

func collect(outs []outcome, of func(outcome) float64) []float64 {
	v := make([]float64, 0, len(outs))
	for _, o := range outs {
		v = append(v, of(o))
	}
	return v
}

// quartiles returns the first quartile, the median and the third
// quartile of v (linear interpolation between order statistics).
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}
