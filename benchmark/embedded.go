package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
	"almostmix/internal/spectral"
)

// Sizes of the three embedded-tier workloads. They are chosen so that one
// run sees many distinct inputs (a pool of graphs or hierarchies cycled
// by op index, a fresh sub-seed per op): with a single graph per run the
// graph's mixing time and emulation factor would move every op of the run
// together, and two seeds would differ by more than a regression bound.
const (
	expanderDegree = 8
	// mixingCap bounds the exact mixing-time computation; the expanders
	// here mix in tens of steps.
	mixingCap = 1_000_000
	// successMargin replaces the default 2.5 in the expander builds. On
	// graphs this small the partition hash now and then makes a part of
	// under ten virtual nodes, and at the default about one Build in six
	// thousand then ends with "nodes got under half the target degree":
	// a failed op that says nothing about the code under test.
	successMargin = 4

	buildNodes  = 32 // build-expander: ≈ 0.1 s per Build
	buildGraphs = 8

	serveNodes       = 48 // serve-expander: ≈ 0.2 s per Build, ≈ 4 ms per op
	serveHierarchies = 8

	barbellClique = 8 // build-clusters: two 8-cliques joined by a 4-node path, ≈ 45 ms per op
	barbellBridge = 4
)

// expander is one random regular graph with the exact lazy mixing time
// Build is told to use.
type expander struct {
	g   *graph.Graph
	tau int
}

// newExpander draws expander j of a workload's pool from src.
func newExpander(src *rngutil.Source, n int, j uint64, t *tracer) (expander, error) {
	var x expander
	var err error
	t.call("graph.build", func() {
		x.g = graph.RandomRegular(n, expanderDegree, src.Stream("graph", j))
		x.g.AssignDistinctRandomWeights(src.Stream("weights", j))
	})
	if !x.g.IsConnected() {
		return x, fmt.Errorf("random regular graph %d is disconnected", j)
	}
	t.call("spectral.mixing", func() {
		x.tau, err = spectral.MixingTime(x.g, spectral.Lazy, mixingCap)
	})
	if err != nil {
		return x, fmt.Errorf("mixing time of graph %d: %w", j, err)
	}
	return x, nil
}

// build runs embed.Build on x with the given build source and checks the
// result the way every build op does.
func (x expander) build(src *rngutil.Source, t *tracer) (*embed.Hierarchy, error) {
	p := embed.DefaultParams()
	p.TauMix = x.tau
	p.SuccessMargin = successMargin
	var h *embed.Hierarchy
	var err error
	t.call("embed.build", func() { h, err = embed.Build(x.g, p, src) })
	if err != nil {
		return nil, err
	}
	t.call(spanOracle, func() { err = checkHierarchy(h, x.g) })
	return h, err
}

// checkHierarchy is the build oracle on top of Build's own ledger and
// connectivity checks: the hierarchy has at least one partition level,
// one virtual node per edge endpoint, and a connected G0 over them.
func checkHierarchy(h *embed.Hierarchy, g *graph.Graph) error {
	switch {
	case h.Levels < 1 || len(h.Upper) != h.Levels:
		return fmt.Errorf("hierarchy has %d levels and %d upper overlays", h.Levels, len(h.Upper))
	case h.VM.Count() != 2*g.M():
		return fmt.Errorf("hierarchy has %d virtual nodes, want 2m = %d", h.VM.Count(), 2*g.M())
	case !h.G0.Graph.IsConnected():
		return fmt.Errorf("G0 is disconnected")
	case h.ConstructionRoundsBase() <= 0:
		return fmt.Errorf("construction charged %d rounds", h.ConstructionRoundsBase())
	}
	return nil
}

// sameEdges reports how many edge IDs differ between got and the
// ascending reference want (size of the symmetric difference).
func sameEdges(got, want []int) int {
	g := append([]int(nil), got...)
	sort.Ints(g)
	diff, i, j := 0, 0, 0
	for i < len(g) && j < len(want) {
		switch {
		case g[i] == want[j]:
			i++
			j++
		case g[i] < want[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + len(g) - i + len(want) - j
}

// kruskal returns the reference MST edge IDs of g, ascending.
func kruskal(g *graph.Graph) []int {
	edges, _ := mstbase.Kruskal(g)
	sort.Ints(edges)
	return edges
}

// ---------------------------------------------------------------------
// build-expander

type buildExpander struct {
	src   *rngutil.Source
	pool  []expander
	built *embed.Hierarchy // the latest op's result; the walk probes replay it
}

func setupBuildExpander(seed uint64, t *tracer) (runner, error) {
	w := &buildExpander{src: rngutil.NewSource(seed)}
	for j := 0; j < buildGraphs; j++ {
		x, err := newExpander(w.src, buildNodes, uint64(j), t)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, x)
	}
	return w, nil
}

func (w *buildExpander) op(i int, t *tracer) (int64, error) {
	x := w.pool[i%len(w.pool)]
	h, err := x.build(w.src.Child("build", uint64(i)), t)
	if err != nil {
		return 0, err
	}
	w.built = h
	t.count("embed.construction_rounds", float64(h.ConstructionRoundsBase()))
	return int64(h.ConstructionRoundsBase()), nil
}

func (w *buildExpander) layers(t *tracer, m layerMetrics) error {
	describePool(w.pool, t, m)
	describeBuild(w.built, t, m)
	probeWalkStages(w.built, w.src, t, m)
	probeSchedule(w.built, t, m)
	return nil
}

// describePool reports the graph and spectral layers' set-up work.
func describePool(pool []expander, t *tracer, m layerMetrics) {
	describeGraph(pool[0].g, t, m)
	m.set("spectral.mixing_ms", t.sumMS("spectral.mixing"))
	tau := 0.0
	for _, x := range pool {
		tau += float64(x.tau)
	}
	m.set("spectral.tau", tau/float64(len(pool)))
}

// describeBuild reports the shape of one built hierarchy and the heap a
// Build allocates.
func describeBuild(h *embed.Hierarchy, t *tracer, m layerMetrics) {
	m.set("embed.virtual_nodes", float64(h.VM.Count()))
	m.set("embed.levels", float64(h.Levels))
	m.set("embed.g0_edges", float64(h.G0.Graph.M()))
	_, mb := t.meanAllocs("embed.build")
	m.set("embed.build_mb", mb)
}

// probeWalkStages replays Build's two walk stages through the public
// randomwalk.Run, with the sources, walk kinds and lengths Build derives
// from the same public fields of h. embed.walk_share relates them to the
// median Build (base: embed.build_ms_p50).
func probeWalkStages(h *embed.Hierarchy, src *rngutil.Source, t *tracer, m layerMetrics) {
	var steps, rounds int

	vnodes := h.VM.Count()
	g0Sources := make([]int32, 0, vnodes*h.Resolved.WalksPerVirtualNode)
	for vid := 0; vid < vnodes; vid++ {
		for j := 0; j < h.Resolved.WalksPerVirtualNode; j++ {
			g0Sources = append(g0Sources, int32(h.VM.Owner(int32(vid))))
		}
	}
	t.call("randomwalk.g0_run", func() {
		res := randomwalk.Run(h.Base, g0Sources, randomwalk.Config{
			Kind: spectral.Lazy, Steps: h.Resolved.WalkLen, Record: true,
		}, src.Stream("probe-g0", 0))
		rounds += res.Stats.Rounds
	})
	steps += len(g0Sources) * h.Resolved.WalkLen

	perNode := int(successMargin * float64(h.Resolved.OverlayDegree) * float64(h.Resolved.Beta))
	for level := 1; level <= h.Levels; level++ {
		below := h.Overlay(level - 1)
		maxPart := 0
		for _, size := range below.PartSizes() {
			maxPart = max(maxPart, size)
		}
		walkLen := 2*int(math.Ceil(math.Log2(float64(max(maxPart, 1))))) + 4
		sources := make([]int32, 0, vnodes*perNode)
		for vid := 0; vid < vnodes; vid++ {
			for j := 0; j < perNode; j++ {
				sources = append(sources, int32(vid))
			}
		}
		t.call("randomwalk.level_run", func() {
			res := randomwalk.Run(below.Graph, sources, randomwalk.Config{
				Kind: spectral.Regular, Steps: walkLen, Record: true,
			}, src.Stream("probe-level", uint64(level)))
			rounds += res.Stats.Rounds
		})
		steps += len(sources) * walkLen
	}

	g0, levels := t.sumMS("randomwalk.g0_run"), t.sumMS("randomwalk.level_run")
	m.set("randomwalk.g0_run_ms", g0)
	m.set("randomwalk.level_run_ms", levels)
	m.set("randomwalk.walk_steps", float64(steps))
	m.set("randomwalk.ns_per_step", ratio((g0+levels)*1e6, float64(steps)))
	m.set("randomwalk.rounds", float64(rounds))
	m.set("embed.walk_share", ratio(g0+levels, t.p50ms("embed.build")))
}

// probeSchedule times pathsched.Schedule on the G0 embedding's paths, the
// call Build's emulation measurement and every routing phase funnel into.
func probeSchedule(h *embed.Hierarchy, t *tracer, m layerMetrics) {
	hops := 0
	for _, p := range h.G0.Paths {
		hops += len(p) - 1
	}
	var res pathsched.Result
	t.call("pathsched.schedule", func() { res = pathsched.Schedule(h.G0.Paths) })
	ms := t.sumMS("pathsched.schedule")
	m.set("pathsched.schedule_ms", ms)
	m.set("pathsched.ns_per_hop", ratio(ms*1e6, float64(hops)))
	m.set("pathsched.makespan", float64(res.Makespan))
}

// ---------------------------------------------------------------------
// serve-expander

type serveExpander struct {
	src  *rngutil.Source
	pool []expander
	hs   []*embed.Hierarchy
	want [][]int // want[k]: Kruskal's edge IDs on hs[k].Base, ascending
}

func setupServeExpander(seed uint64, t *tracer) (runner, error) {
	w := &serveExpander{src: rngutil.NewSource(seed)}
	for k := 0; k < serveHierarchies; k++ {
		x, err := newExpander(w.src, serveNodes, uint64(k), t)
		if err != nil {
			return nil, err
		}
		h, err := x.build(w.src.Child("build", uint64(k)), t)
		if err != nil {
			return nil, fmt.Errorf("hierarchy %d: %w", k, err)
		}
		w.pool = append(w.pool, x)
		w.hs = append(w.hs, h)
		w.want = append(w.want, kruskal(x.g))
	}
	return w, nil
}

// demands are the two ways serve-expander uses route: one packet per node
// (sparse) and d packets per node (congested).
var demands = []struct {
	name string
	gen  func(*graph.Graph, *rand.Rand) []route.Request
}{
	{"perm", route.RandomPermutation},
	{"degree", route.DegreeDemand},
}

func (w *serveExpander) op(i int, t *tracer) (int64, error) {
	k := i % len(w.hs)
	h, idx := w.hs[k], uint64(i)
	var rounds int64
	portalLoad := 0
	for _, d := range demands {
		var reqs []route.Request
		t.call("route.demand", func() { reqs = d.gen(h.Base, w.src.Stream(d.name, idx)) })
		var rep *route.Report
		var err error
		t.call("route."+d.name, func() { rep, err = route.Route(h, reqs, w.src.Child("route-"+d.name, idx)) })
		if err != nil {
			return 0, fmt.Errorf("route %s: %w", d.name, err)
		}
		if rep.Delivered != len(reqs) {
			t.count("route.undelivered", float64(len(reqs)-rep.Delivered))
			return 0, fmt.Errorf("route %s: delivered %d of %d packets", d.name, rep.Delivered, len(reqs))
		}
		rounds += int64(rep.BaseRounds)
		portalLoad = max(portalLoad, rep.MaxPortalLoad)
		t.count("route."+d.name+"_base_rounds", float64(rep.BaseRounds))
		t.count("route."+d.name+"_prep_rounds", float64(rep.PrepRounds))
	}
	t.count("route.max_portal_load", float64(portalLoad))

	var res *mst.Result
	var err error
	t.call("mst.run", func() { res, err = mst.Run(h, w.src.Child("mst", idx)) })
	if err != nil {
		return 0, fmt.Errorf("mst: %w", err)
	}
	diff := 0
	t.call(spanOracle, func() { diff = sameEdges(res.Edges, w.want[k]) })
	t.count("mst.mismatches", float64(diff))
	if diff != 0 {
		return 0, fmt.Errorf("mst: edge set differs from Kruskal's in %d edges", diff)
	}
	t.count("mst.algorithm_rounds", float64(res.AlgorithmRounds))
	t.count("mst.iterations", float64(len(res.Iterations)))
	return rounds + int64(res.AlgorithmRounds), nil
}

func (w *serveExpander) layers(t *tracer, m layerMetrics) error {
	describePool(w.pool, t, m)
	describeBuild(w.hs[0], t, m)
	rounds := 0
	for _, h := range w.hs {
		rounds += h.ConstructionRoundsBase()
	}
	m.set("embed.construction_rounds", float64(rounds)/float64(len(w.hs)))
	g := w.hs[0].Base
	m.set("route.perm_us_per_packet", ratio(m["route.perm_ms_p50"]*1e3, float64(g.N())))
	m.set("route.degree_us_per_packet", ratio(m["route.degree_ms_p50"]*1e3, float64(2*g.M())))
	probeWalkStages(w.hs[0], w.src, t, m)
	probeSchedule(w.hs[0], t, m)
	return nil
}

// ---------------------------------------------------------------------
// build-clusters

type buildClusters struct {
	src *rngutil.Source
	g   *graph.Graph
}

func setupBuildClusters(seed uint64, t *tracer) (runner, error) {
	w := &buildClusters{src: rngutil.NewSource(seed)}
	t.call("graph.build", func() { w.g = graph.Barbell(barbellClique, barbellBridge) })
	return w, nil
}

func (w *buildClusters) op(i int, t *tracer) (int64, error) {
	idx := uint64(i)
	// The barbell's shape is fixed; the seed reaches the edge weights
	// (hence the MST), the demand, and every build and routing stream.
	w.g.AssignDistinctRandomWeights(w.src.Stream("weights", idx))

	var dec *decomp.Decomposition
	var err error
	t.call("decomp.decompose", func() { dec, err = decomp.Decompose(w.g, decomp.Params{}) })
	if err != nil {
		return 0, fmt.Errorf("decompose: %w", err)
	}
	var pe *embed.Partitioned
	t.call("embed.partitioned", func() {
		pe, err = embed.BuildPartitioned(dec, embed.DefaultParams(), w.src.Child("build", idx))
	})
	if err != nil {
		return 0, fmt.Errorf("build partitioned: %w", err)
	}
	var reqs []route.Request
	t.call("route.demand", func() { reqs = route.RandomPermutation(w.g, w.src.Stream("perm", idx)) })
	var rep *route.PartitionedReport
	t.call("route.partitioned", func() { rep, err = route.RoutePartitioned(pe, reqs, w.src.Child("route", idx)) })
	if err != nil {
		return 0, fmt.Errorf("route partitioned: %w", err)
	}
	if rep.Delivered != len(reqs) {
		t.count("route.undelivered", float64(len(reqs)-rep.Delivered))
		return 0, fmt.Errorf("route partitioned: delivered %d of %d packets", rep.Delivered, len(reqs))
	}
	var res *mst.PartitionedResult
	t.call("mst.partitioned", func() { res, err = mst.RunPartitioned(pe, w.src.Child("mst", idx)) })
	if err != nil {
		return 0, fmt.Errorf("mst partitioned: %w", err)
	}
	diff := 0
	t.call(spanOracle, func() { diff = sameEdges(res.Edges, kruskal(w.g)) })
	t.count("mst.mismatches", float64(diff))
	if diff != 0 {
		return 0, fmt.Errorf("mst partitioned: edge set differs from Kruskal's in %d edges", diff)
	}

	t.count("decomp.clusters", float64(len(dec.Clusters)))
	t.count("decomp.cross_edges", float64(len(dec.CrossEdges)))
	t.count("decomp.charged_passes", float64(dec.SweepPasses))
	t.count("embed.clusters", float64(len(pe.Clusters)))
	t.count("embed.partitioned_rounds", float64(pe.ConstructionRoundsBase()))
	t.count("route.partitioned_rounds", float64(rep.BaseRounds))
	t.count("route.partitioned_waves", float64(rep.Waves))
	t.count("mst.partitioned_rounds", float64(res.Rounds))
	return int64(pe.ConstructionRoundsBase()) + int64(rep.BaseRounds) + int64(res.Rounds), nil
}

func (w *buildClusters) layers(t *tracer, m layerMetrics) error {
	describeGraph(w.g, t, m)
	return nil
}
