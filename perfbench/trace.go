package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/routing/cdg"
)

// tracer records spans around the benchmark's calls into each layer
// and a CPU profile of the simulated run.  A nil tracer records
// nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans not yet ended, innermost last

	profile bytes.Buffer
	cpu     map[string]int64 // CPU-profile nanoseconds by leaf package
}

// span is one call into a layer.  Spans nest: the parent is the span
// open when this one began (-1 for none).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cpu: map[string]int64{}} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Since(t.t0)
}

// spanStats sums the spans of one name: how many, their total
// duration, and their self time (duration minus the time their child
// spans cover).
type spanStats struct {
	count       int
	total, self time.Duration
}

func (t *tracer) stats() map[string]spanStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanStats{}
	for i, s := range t.spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
		out[s.name] = st
	}
	return out
}

// startProfile starts the CPU profile of a simulated run; the Go
// runtime samples every thread at 100 Hz.
func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	t.profile.Reset()
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		panic(fmt.Sprintf("starting the CPU profile: %v", err))
	}
}

// stopProfile ends the CPU profile and adds its samples, grouped by
// the package of the innermost frame, to the tracer's totals.
func (t *tracer) stopProfile() {
	if t == nil {
		return
	}
	pprof.StopCPUProfile()
	byPkg, err := leafPackages(&t.profile)
	if err != nil {
		panic(fmt.Sprintf("reading the CPU profile: %v", err))
	}
	for pkg, ns := range byPkg {
		t.cpu[pkg] += ns
	}
}

// selfFrac is the share of profiled CPU time whose innermost frame is
// in the package.
func (t *tracer) selfFrac(pkg string) float64 {
	var total int64
	for _, ns := range t.cpu {
		total += ns
	}
	if total == 0 {
		return 0
	}
	return float64(t.cpu[pkg]) / float64(total)
}

// gcSample is a reading of the runtime's CPU-time classes.
type gcSample struct{ gc, busy float64 }

var gcMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	gc := s[0].Value.Float64()
	return gcSample{gc: gc, busy: gc + s[1].Value.Float64() + s[2].Value.Float64()}
}

// fracSince is the share of busy CPU time spent in the garbage
// collector since an earlier reading.
func (now gcSample) fracSince(then gcSample) float64 {
	if busy := now.busy - then.busy; busy > 0 {
		return (now.gc - then.gc) / busy
	}
	return 0
}

// Packages whose self time the profile attributes.
const (
	pkgSim      = "repro/internal/sim"
	pkgFabric   = "repro/internal/fabric"
	pkgArbtable = "repro/internal/arbtable"
)

// fabricLayers collects the per-layer metrics of one traced
// repetition: span timings, the counters the simulator exports, and
// the profile's self-time shares.
func fabricLayers(net *fabric.Network, tr *tracer, proof cdg.Stats, run time.Duration, gcFrac float64) map[string]float64 {
	st := tr.stats()
	ms := func(name string) float64 { return float64(st[name].total) / 1e6 }
	meanSelfUS := func(name string) float64 {
		if st[name].count == 0 {
			return 0
		}
		return float64(st[name].self) / 1e3 / float64(st[name].count)
	}
	m := net.Metrics
	_, delivered, _ := net.Totals()
	events := float64(net.ExecutedEvents())
	var hops int64
	for _, vl := range m.VL {
		hops += vl.Packets
	}
	barriers, _, _ := net.SyncCounters()
	windows := float64(net.Windows())
	reconf := net.ReconfigStats()
	moves := 0
	forEachPort(net.Adm.Ports(), func(_ string, pt *core.PortTable) { moves += pt.Allocator().TotalMoves() })
	heap := net.Engine.Stats().MaxHeapDepth
	if c := net.Ctrl.Stats().MaxHeapDepth; c > heap {
		heap = c
	}
	runNS := float64(run.Nanoseconds())

	l := map[string]float64{
		"topology.generate_ms":        ms("topology.generate"),
		"routing.compute_ms":          ms("routing.compute"),
		"cdg.verify_ms":               ms("cdg.verify"),
		"cdg.channels":                float64(proof.Channels),
		"fabric.build_ms":             ms("fabric.build"),
		"admission.admit_us":          meanSelfUS("admission.admit"),
		"admission.admits":            float64(st["admission.admit"].count),
		"core.table_moves":            float64(moves),
		"core.swaps":                  float64(reconf.Swaps),
		"core.stale_picks":            float64(reconf.StalePicks),
		"subnet.program_us":           meanSelfUS("subnet.program"),
		"subnet.programs":             float64(st["subnet.program"].count),
		"subnet.mads":                 0,
		"subnet.program_time_bt":      0,
		"sim.events":                  events,
		"sim.ns_per_event":            ratio(runNS, events),
		"sim.max_heap_depth":          float64(heap),
		"sim.self_frac":               tr.selfFrac(pkgSim),
		"sim.windows":                 windows,
		"sim.barriers":                float64(barriers),
		"sim.events_per_window":       ratio(events, windows),
		"fabric.pkt_hops":             float64(hops),
		"fabric.ns_per_hop":           ratio(runNS, float64(hops)),
		"fabric.delivered":            float64(delivered),
		"fabric.events_per_delivered": ratio(events, float64(delivered)),
		"fabric.self_frac":            tr.selfFrac(pkgFabric),
		"fabric.voq_passes":           float64(m.VOQ.SchedPasses),
		"fabric.voq_match_per_pass":   ratio(float64(m.VOQ.Matched), float64(m.VOQ.SchedPasses)),
		"fabric.hol_stalls":           float64(m.VOQ.HOLStalls),
		"arbtable.picks":              float64(m.Arb.Picks),
		"arbtable.entries_per_pick":   ratio(float64(m.Arb.EntriesVisited), float64(m.Arb.Picks)),
		"arbtable.stall_frac":         ratio(float64(m.Arb.Stalls), float64(m.Arb.Picks+m.Arb.Stalls)),
		"arbtable.self_frac":          tr.selfFrac(pkgArbtable),
		"admission.admit_latency_bt":  0,
		"runtime.gc_frac":             gcFrac,
	}
	return l
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// leafPackages decodes a gzipped pprof CPU profile and sums the CPU
// nanoseconds of its samples by the package of each sample's innermost
// frame (the first line of its first location, inlined frames
// included).  It reads only the profile.proto fields it needs.
func leafPackages(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		leafs     []uint64
		values    []int64 // CPU nanoseconds per sample
		valueSlot = 1     // sample_type [samples/count, cpu/nanoseconds]
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendUints(locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > valueSlot {
				leafs = append(leafs, locs[0])
				values = append(values, vals[valueSlot])
			}
		case 4: // Location
			var id, fn uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; keep the first, the innermost inlined frame
					if fn == 0 {
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, loc := range leafs {
		name := ""
		if si, ok := funcName[locFunc[loc]]; ok && si < int64(len(strs)) {
			name = strs[si]
		}
		out[packageOf(name)] += values[i]
	}
	return out, nil
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/fabric.(*shard).trySwitch".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// eachField walks the top-level fields of a protobuf message, passing
// varints as v and length-delimited payloads as b.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field: one varint, or a packed
// run of them.
func appendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}
