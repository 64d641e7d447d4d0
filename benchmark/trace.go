package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"almostmix/internal/graph"
)

// span is one bracketed call into a layer's public function. Spans of one
// op share Op; set-up and probe spans carry Op -1. A layer's self time is
// its span minus the spans that name it as Parent.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Allocs and AllocBytes are the process-wide heap allocations made
	// while the span was open (one client, so they are the span's own).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// Names of the root spans (set-up, one per op, probes; their direct
// children name them as parent) and of the oracle check inside an op.
const (
	phaseSetup = "setup"
	phaseOp    = "op"
	phaseProbe = "probe"
	spanOracle = "harness.oracle"
)

// tracer keeps the traced run's spans and counts in memory. A nil tracer
// is the untraced run: call runs the function and records nothing, so
// workload code is written once for both passes.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	op       int    // op index stamped on new spans
	parent   string // parent stamped on new spans
	sums     map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		t0:       time.Now(),
		op:       -1,
		sums:     make(map[string]float64),
	}
}

// heapAllocs is the process's cumulative heap allocation so far.
func heapAllocs() (objects, bytes uint64) {
	samples := [2]rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(samples[:])
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// call runs f inside a span named name.
func (t *tracer) call(name string, f func()) {
	if t == nil {
		f()
		return
	}
	op, parent := t.op, t.parent
	a0, b0 := heapAllocs()
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	a1, b1 := heapAllocs()
	t.spans = append(t.spans, span{
		Workload: t.workload, Op: op, Name: name, Parent: parent,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds(),
		Allocs: a1 - a0, AllocBytes: b1 - b0,
	})
}

// root runs f inside a span named name that parents the calls f makes:
// the set-up span, the op span of a traced op, or the probe span.
func (t *tracer) root(op int, name string, f func()) {
	if t == nil {
		f()
		return
	}
	outerOp, outerParent := t.op, t.parent
	t.op = op
	t.call(name, func() {
		t.parent = name
		f()
	})
	t.op, t.parent = outerOp, outerParent
}

// count adds v to the named per-layer count; layers reads it back as a
// mean over the traced ops.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// p50ms is the median duration of the spans called name, 0 with none.
func (t *tracer) p50ms(name string) float64 {
	var ds []float64
	for _, s := range t.named(name) {
		ds = append(ds, s.ms())
	}
	return quantile(ds, 0.5)
}

// sumMS totals the duration of the spans called name.
func (t *tracer) sumMS(name string) float64 {
	total := 0.0
	for _, s := range t.named(name) {
		total += s.ms()
	}
	return total
}

// meanAllocs returns the mean heap objects and megabytes allocated per
// span called name.
func (t *tracer) meanAllocs(name string) (objects, mb float64) {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0, 0
	}
	for _, s := range ss {
		objects += float64(s.Allocs)
		mb += float64(s.AllocBytes) / (1 << 20)
	}
	return objects / float64(len(ss)), mb / float64(len(ss))
}

// tracedOps is the number of op spans recorded.
func (t *tracer) tracedOps() int { return len(t.named(phaseOp)) }

// mean is the named count averaged over the traced ops.
func (t *tracer) mean(name string) float64 {
	if n := t.tracedOps(); n > 0 {
		return t.sums[name] / float64(n)
	}
	return 0
}

// coverage is the share of the op spans' time that their direct child
// spans account for: what the trace can attribute to a layer.
func (t *tracer) coverage() float64 {
	var ops, children int64
	for _, s := range t.spans {
		switch {
		case s.Name == phaseOp:
			ops += s.EndNS - s.StartNS
		case s.Parent == phaseOp:
			children += s.EndNS - s.StartNS
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(children) / float64(ops)
}

// fill copies every span median, span allocation mean and count that has
// a per-layer metric of the matching name into m: span "route.perm" feeds
// "route.perm_ms_p50" and "route.perm_allocs", count "mst.iterations"
// feeds the metric of that name. Derived figures are set by the caller.
func (t *tracer) fill(m layerMetrics) {
	seen := make(map[string]bool)
	for _, s := range t.spans {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		m.setKnown(s.Name+"_ms_p50", t.p50ms(s.Name))
		objects, _ := t.meanAllocs(s.Name)
		m.setKnown(s.Name+"_allocs", objects)
	}
	for name := range t.sums {
		m.setKnown(name, t.mean(name))
	}
}

// layerMetrics collects a traced run's per-layer figures by metric name.
type layerMetrics map[string]float64

var perLayerNames = func() map[string]bool {
	names := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		names[d.name] = true
	}
	return names
}()

// set records a per-layer metric; a name outside the table is a bug in
// the benchmark, not a measurement.
func (m layerMetrics) set(name string, v float64) {
	if !perLayerNames[name] {
		panic("benchmark: per-layer metric " + name + " is not in the perLayer table")
	}
	m[name] = v
}

// setKnown records v when name is a per-layer metric and ignores it otherwise.
func (m layerMetrics) setKnown(name string, v float64) {
	if perLayerNames[name] {
		m[name] = v
	}
}

// describeGraph reports the graph layer: the set-up time spent building
// graphs and the size of one of them.
func describeGraph(g *graph.Graph, t *tracer, m layerMetrics) {
	m.set("graph.build_ms", t.sumMS("graph.build"))
	m.set("graph.nodes", float64(g.N()))
	m.set("graph.edges", float64(g.M()))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of values by linear interpolation
// between order statistics, 0 for no values. It sorts a copy.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
