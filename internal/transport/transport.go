// Package transport factors the simulator's execution contract into a
// Transport interface with interchangeable backends: Proc runs a
// workload on the in-process CONGEST engines (internal/congest,
// unchanged and still zero-alloc in steady rounds), TCP runs the same
// workload as real OS processes — one shard of nodes per process — that
// exchange each round point to point in length-prefixed frames over TCP,
// a coordinator starting the run and collecting its results.
//
// The portability hinge is the replayable Spec: a workload is described
// by pure seeds and sizes, never by in-memory object graphs, so every
// participating process can rebuild the identical graph, programs and
// RNG streams from a few dozen JSON bytes. Delivery semantics are NOT
// reimplemented per backend — both funnel into congest's canonical
// receiver-driven, port-ordered deliverTo (the TCP backend through
// congest.Shard), which is why Probe/TraceSink output is byte-identical
// across backends (asserted by the differential suite, `make
// transport-suite`).
//
// Invariants every backend must satisfy are documented in DESIGN.md
// ("Transport contract").
package transport

import (
	"fmt"
	"slices"
	"sort"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// Spec is the replayable description of one workload run: everything a
// process needs to rebuild the graph, the per-node programs and the
// simulator's random source, as plain seeds and sizes. Field meaning is
// fixed by the workload (K is the walks-per-degree multiplier for
// "walks", unused elsewhere; D is the path length for "lollipop"
// graphs, the lattice halfwidth for "ringlattice", the degree for
// "rr").
type Spec struct {
	Workload   string `json:"workload"`
	Graph      string `json:"graph"`
	N          int    `json:"n"`
	D          int    `json:"d,omitempty"`
	K          int    `json:"k,omitempty"`
	Steps      int    `json:"steps,omitempty"`
	Root       int    `json:"root,omitempty"`
	Value      int    `json:"value,omitempty"`
	Seed       uint64 `json:"seed"`
	SrcSeed    uint64 `json:"src_seed"`
	WeightSeed uint64 `json:"weight_seed,omitempty"`

	// FaultSpec/FaultSeed describe the fault plan (faults.Parse syntax;
	// FaultSeed is the plan's seed, used raw). Retry is the fault-aware
	// workloads' attempt index: it offsets the program RNG stream
	// (Child("…-retry", Retry)), never the fault seed — the retry
	// drivers (workloads) derive per-attempt fault seeds themselves and
	// place the result in FaultSeed. WalkCounts and WalkSeqBase carry the
	// walks re-issue state between attempts.
	FaultSpec   string `json:"fault_spec,omitempty"`
	FaultSeed   uint64 `json:"fault_seed,omitempty"`
	Retry       int    `json:"retry,omitempty"`
	WalkCounts  []int  `json:"walk_counts,omitempty"`
	WalkSeqBase []int  `json:"walk_seq_base,omitempty"`
}

// FaultPlan materializes the spec's fault plan: nil with no FaultSpec,
// else the plan every process of the run parses identically —
// deterministic in (FaultSpec, FaultSeed) alone, like BuildGraph is in
// the graph fields.
func (s Spec) FaultPlan() (*faults.Plan, error) {
	if s.FaultSpec == "" {
		return nil, nil
	}
	return faults.Parse(s.FaultSpec, s.FaultSeed)
}

// BuildGraph rebuilds the spec's graph: deterministic in the spec alone,
// so every process of a TCP run holds an identical topology. A nonzero
// WeightSeed additionally assigns the distinct random edge weights the
// MST workloads need. A spec its generator cannot serve is an error, not
// a panic or an endless redraw: every shard process rebuilds the graph
// here from the spec it was sent.
func BuildGraph(spec Spec) (*graph.Graph, error) {
	var g *graph.Graph
	switch spec.Graph {
	case "rr":
		if err := graph.CheckRegular(spec.N, spec.D); err != nil {
			return nil, fmt.Errorf("transport: rr graph: %w", err)
		}
		g = graph.RandomRegular(spec.N, spec.D, rngutil.NewRand(spec.Seed))
	case "ring":
		if spec.N < 3 {
			return nil, fmt.Errorf("transport: ring graph needs n >= 3, got %d", spec.N)
		}
		g = graph.Ring(spec.N)
	case "ringlattice":
		if spec.D < 1 || 2*spec.D >= spec.N {
			return nil, fmt.Errorf("transport: ringlattice graph needs 1 <= d < n/2, got n=%d d=%d", spec.N, spec.D)
		}
		g = graph.RingLattice(spec.N, spec.D)
	case "star":
		g = graph.Star(spec.N)
	case "lollipop":
		g = graph.Lollipop(spec.N, spec.D)
	default:
		return nil, fmt.Errorf("transport: unknown graph kind %q", spec.Graph)
	}
	if spec.WeightSeed != 0 {
		g.AssignDistinctRandomWeights(rngutil.NewRand(spec.WeightSeed))
	}
	return g, nil
}

// Instance is a Spec materialized on one process: the graph, the
// per-node programs, and how to run and harvest them.
type Instance struct {
	Graph    *graph.Graph
	Programs []congest.Program
	Source   *rngutil.Source
	// Faults is the instance's fault plan, nil for fault-free runs. A
	// fault-aware workload builds it from the spec (FaultPlan) so every
	// process holds an identical plan; backends attach it to their
	// networks before running and harvest its totals into Result.Faults.
	Faults *faults.Plan
	// MaxRounds is the round budget; Quiet selects RunUntilQuiet-style
	// termination (stop after the first round ≥ 1 that delivers nothing).
	MaxRounds int
	Quiet     bool
	// Harvest appends to buf the record of the run's outcome held by
	// node v — a handful of words, called on the process that ran v — and
	// Reduce turns the n records, indexed by node, into the workload's
	// output value; both nil when the workload has no output beyond
	// rounds/messages. Records that crossed the wire (transport owns their
	// one codec, proto.go) are well-formed words and nothing more: Reduce
	// checks their count and every value it indexes with. Proc hands
	// Reduce the records as harvested.
	Harvest func(buf []uint64, v int) []uint64
	Reduce  func(g *graph.Graph, perNode [][]uint64) (any, error)
}

// harvest appends the records of nodes [lo, hi) to perNode (empty ones
// for a workload without Harvest). The records share one backing array;
// each is capped so a Reduce that appends cannot reach its neighbour.
func (inst *Instance) harvest(perNode [][]uint64, lo, hi int) [][]uint64 {
	perNode = slices.Grow(perNode, hi-lo)
	buf := make([]uint64, 0, hi-lo) // most records are a word
	for v := lo; v < hi; v++ {
		start := len(buf)
		if inst.Harvest != nil {
			buf = inst.Harvest(buf, v)
		}
		perNode = append(perNode, buf[start:len(buf):len(buf)])
	}
	return perNode
}

// reduce is the shared end of both backends' harvest: the workload's
// output from one record per node, nil for a workload that defines none.
func (inst *Instance) reduce(perNode [][]uint64) (any, error) {
	if inst.Harvest == nil || inst.Reduce == nil {
		return nil, nil
	}
	return inst.Reduce(inst.Graph, perNode)
}

// Workload couples a Spec builder with the payload layouts of the
// records its programs exchange, both required. The layouts drive
// congest's one codec (internal/congest/wire.go), pure and canonical,
// which the TCP backend relies on for deterministic cross-process replay.
type Workload struct {
	Name    string
	Build   func(spec Spec) (*Instance, error)
	Layouts []congest.Layout
}

// Encode appends the byte form of m, a record of one of the workload's
// kinds.
func (w Workload) Encode(buf []byte, m congest.Message) ([]byte, error) {
	return congest.Append(buf, w.Layouts, m)
}

// Decode parses the bytes Encode wrote.
func (w Workload) Decode(b []byte) (congest.Message, error) {
	return congest.Parse(b, w.Layouts)
}

var registry = map[string]Workload{}

// Register adds a workload to the process-global registry (called from
// package init of internal/transport/workloads). Duplicate names panic:
// two workloads answering to one spec cannot both be what a remote
// shard replays. So do layouts congest.CheckLayouts refuses.
func Register(w Workload) {
	if w.Name == "" || w.Build == nil {
		panic("transport: Register needs a name and a builder")
	}
	if err := congest.CheckLayouts(w.Layouts); err != nil {
		panic(fmt.Sprintf("transport: workload %q: %v", w.Name, err))
	}
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("transport: workload %q registered twice", w.Name))
	}
	registry[w.Name] = w
}

// Names lists the registered workloads, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup resolves a workload by name, listing the known names on a miss
// so a typo in a spec (or a version-skewed peer) fails comprehensibly.
func Lookup(name string) (Workload, error) {
	if w, ok := registry[name]; ok {
		return w, nil
	}
	return Workload{}, fmt.Errorf("transport: unknown workload %q (known: %v)", name, Names())
}

// buildInstance is the one door from a Spec to a runnable Instance, shared
// by both backends and by every shard process so they fail alike: resolve
// the workload, materialize the instance, and reject a fault plan naming
// nodes or edges the graph does not have.
func buildInstance(spec Spec) (Workload, *Instance, error) {
	wl, err := Lookup(spec.Workload)
	if err != nil {
		return Workload{}, nil, err
	}
	inst, err := wl.Build(spec)
	if err != nil {
		return Workload{}, nil, err
	}
	if inst.Faults != nil {
		if err := inst.Faults.Validate(inst.Graph.N(), inst.Graph.M()); err != nil {
			return Workload{}, nil, err
		}
	}
	return wl, inst, nil
}

// Options carries the observability hooks a backend threads through its
// run. Both are optional; the probe sees the byte-identical event
// stream on every backend.
type Options struct {
	Probe   congest.Probe
	Metrics *metrics.Registry
}

// Result is the backend-independent outcome of a run. Output is the
// workload's Reduce value (nil when the workload defines none); Faults
// holds the plan's accumulated injected-event totals (zero for
// fault-free runs), identical across backends for one spec.
type Result struct {
	Rounds   int
	Messages int
	Output   any
	Faults   faults.Counts
}

// Transport executes workload specs. Implementations must satisfy the
// contract in DESIGN.md: canonical port-ordered delivery, engine round
// barriers, halt semantics, and a probe event stream byte-identical to
// the sequential reference engine.
type Transport interface {
	Name() string
	Run(spec Spec, opts Options) (Result, error)
}
