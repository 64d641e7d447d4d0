// Package route implements the paper's permutation-routing algorithm
// (§3.2, Theorem 1.2) on a built hierarchical embedding.
//
// Packets are first redistributed uniformly over the virtual nodes by a
// mixing-time random walk (the preparation step), then recursively routed
// through the partition hierarchy: within each part toward either the
// final destination (if it lives in the same part) or toward the portal
// leading to the destination's sibling part, then hopped across a portal
// edge, then routed recursively inside the destination part. At the leaf
// level packets travel along breadth-first paths of the leaf overlay.
//
// All costs are measured: leaf movement and portal hops are scheduled
// store-and-forward on overlay links, and each overlay round is converted
// to base-graph rounds through the measured emulation factors of the
// hierarchy.
package route

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"almostmix/internal/congest"
	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// Request is one packet: deliver from physical node SrcNode to the
// destination's virtual node (DstNode, DstIndex). The source is assumed to
// know the destination's ID pair, from which the partition label follows
// via the shared hash (property P2).
type Request struct {
	SrcNode  int
	DstNode  int
	DstIndex int
}

// Report is the measured outcome of a routing run.
type Report struct {
	// Delivered is the number of packets confirmed at their destination
	// virtual node (always all of them, or Route returns an error).
	Delivered int
	// PrepRounds is the measured base-graph cost of the preparation
	// walks that spread packets uniformly over virtual nodes.
	PrepRounds int
	// G0Rounds is the routing cost in G0 rounds (recursive phases plus
	// portal hops plus leaf movement, converted via measured per-level
	// emulation factors).
	G0Rounds int
	// BaseRounds is the end-to-end cost in base-graph rounds:
	// PrepRounds + G0Rounds · (G0 emulation factor).
	BaseRounds int
	// HopG0Rounds[l] is the G0-round cost of portal hops at level l+1
	// (Lemma 3.4's inter-part term, per level — experiment E8).
	HopG0Rounds []int
	// LeafG0Rounds is the G0-round cost of leaf-level movement.
	LeafG0Rounds int
	// LeafSchedules counts pathsched invocations at the leaf level
	// (2^k in the worst case, the recursion's 2·T(m/β) shape).
	LeafSchedules int
	// MaxPortalLoad is the maximum number of packets hopping over a
	// single portal edge in one phase.
	MaxPortalLoad int
	// Costs is the run's cost ledger. The numeric fields above are all
	// derived from it: PrepRounds and BaseRounds from the prep span and
	// the root, G0Rounds from the recursion span, HopG0Rounds and
	// LeafG0Rounds from its per-level portal-hop and leaf-movement
	// children. Nil after RouteUnder, which writes into its caller's
	// ledger.
	Costs *cost.Ledger
}

// router carries the mutable state of one routing run. Everything a run
// writes lives here; the hierarchy it reads is shared, and the only part of
// it a run may extend is the leaf overlay's route rows (embed.RouteRow),
// which are published atomically — so concurrent runs on one hierarchy
// share the structure and the rows and nothing else. The report and its
// ledger are fresh per run; the working memory is a scratch taken from a
// pool when the run starts and handed back when it ends (release).
type router struct {
	h      *embed.Hierarchy
	rng    *rand.Rand
	report *Report
	// trace, when non-nil, records every overlay-edge traversal per
	// packet for RouteExact's full expansion.
	trace [][]traversal
	// probe, when non-nil, observes the run through the simulator's
	// uniform observability layer: the preparation walks emit per-step
	// congestion records, and the recursion emits phase marks positioned
	// at the cumulative G0-round cost they were incurred at (g0Done).
	probe  congest.Probe
	g0Done int
	// led is the ledger the run writes into; the recursion span's
	// children are the portal hops at levels 1…Levels (spans hops …
	// hops+Levels−1), which portal hops charge into, then leaf, which leaf
	// schedules charge into.
	led        *cost.Ledger
	hops, leaf int
	*scratch
}

// scratch is a run's working memory, pooled across runs: its slices keep
// their capacity from run to run, and every entry is written before it is
// read, so no result depends on an earlier run. cur and dst map each
// packet to its current and destination virtual node, and pkts lists the
// packets the recursion starts from. levels[l] belongs to the route call
// at level l: the recursion is depth-first and a level's phase A has
// returned before its phase B starts, so one frame per level is never in
// use twice. paths and arena hold one leaf batch: arena backs every path
// of the batch and is rewound at the next one. loads is maxEdgeLoad's.
type scratch struct {
	cur, dst []int32
	pkts     []int
	levels   []levelScratch
	paths    [][]int32
	arena    []int32
	loads    []int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// levelScratch is one recursion level's working set: the phase A target
// of every packet, and for the crossing packets (in packet order) the
// packet, its final target and the portal edge it hops over.
type levelScratch struct {
	aTargets   []int32
	bPkts      []int
	bTargets   []int32
	crossEdges []int32
}

// mark emits a phase marker at the current cumulative G0 cost.
func (r *router) mark(name string) {
	if r.probe != nil {
		r.probe.PhaseMark(-1, r.g0Done, name)
	}
}

// Route delivers all requests and returns the measured cost report. Each
// destination virtual index must exist (DstIndex < degree of DstNode).
func Route(h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*Report, error) {
	return RouteTraced(h, reqs, src, nil)
}

// RouteTraced runs like Route with a probe observing the run: the
// preparation walks report per-step congestion through
// randomwalk.Config.Probe (run name "prep"), and the recursion reports a
// phase timeline (run name "recursion") whose marks sit at the cumulative
// G0-round cost each leaf batch or portal hop was incurred at. A nil
// probe is identical to Route.
func RouteTraced(h *embed.Hierarchy, reqs []Request, src *rngutil.Source, probe congest.Probe) (*Report, error) {
	return routeInto(nil, h, reqs, src, probe)
}

// RouteUnder runs like Route but writes the run's spans into led, as one
// "route" span under led's current span, instead of into a fresh ledger:
// a caller that keeps the breakdown (an MST tree step) gets it without a
// ledger per run. The report's Costs is nil. The run's ledger violations
// stay in led for the caller's own Err check. On an error return led is
// left inside the spans the run opened and must be discarded.
func RouteUnder(led *cost.Ledger, h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*Report, error) {
	return routeInto(led, h, reqs, src, nil)
}

// routeInto is Route, RouteTraced and RouteUnder: into led when it is
// non-nil, into a fresh ledger otherwise.
func routeInto(led *cost.Ledger, h *embed.Hierarchy, reqs []Request, src *rngutil.Source, probe congest.Probe) (*Report, error) {
	r, err := newRouter(led, h, reqs, src)
	if err != nil {
		return nil, err
	}
	defer r.release()
	r.probe = probe

	r.prepare(reqs, src)

	if r.probe != nil {
		r.probe.RunStart(congest.RunInfo{Name: "recursion", Nodes: h.Base.N(), Edges: h.Base.M()})
	}
	g0Cost, err := r.runRecursion()
	if err != nil {
		return nil, err
	}
	if r.probe != nil {
		r.probe.RunEnd(g0Cost, nil)
	}
	if err := r.finish(g0Cost, len(reqs)); err != nil {
		return nil, err
	}
	return r.report, nil
}

// newRouter builds the shared run state of Route/RouteExact: packet
// destinations, a scratch from the pool, and a base-round "route" span —
// the root of a fresh cost ledger, or opened in led when led is non-nil.
// The caller hands the scratch back with release once the run is over; an
// error here has released it already.
func newRouter(led *cost.Ledger, h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*router, error) {
	var costs *cost.Ledger
	if led == nil {
		led = cost.New("route", "base rounds")
		costs = led
	} else {
		led.Open("route", "base rounds", 1)
	}
	sc := scratches.Get().(*scratch)
	sc.cur = slices.Grow(sc.cur[:0], len(reqs))[:len(reqs)]
	sc.dst = slices.Grow(sc.dst[:0], len(reqs))[:len(reqs)]
	sc.levels = slices.Grow(sc.levels[:0], h.Levels)[:h.Levels]
	r := &router{
		h:   h,
		rng: src.Stream("route", 0),
		led: led,
		report: &Report{
			HopG0Rounds: make([]int, h.Levels),
			Costs:       costs,
		},
		scratch: sc,
	}
	for i, req := range reqs {
		if req.DstIndex < 0 || req.DstIndex >= h.VM.DegreeOf(req.DstNode) {
			r.release()
			return nil, fmt.Errorf("route: request %d: node %d has no virtual index %d",
				i, req.DstNode, req.DstIndex)
		}
		r.dst[i] = h.VM.VID(req.DstNode, req.DstIndex)
	}
	return r, nil
}

// release hands the run's scratch back to the pool. The router must not
// be used after it.
func (r *router) release() {
	scratches.Put(r.scratch)
	r.scratch = nil
}

// chargePrep records the preparation walks as the ledger's prep span.
func (r *router) chargePrep(rounds int) {
	r.led.Open("prep", "base rounds", 1)
	r.led.Charge(rounds)
	r.report.PrepRounds = r.led.Close()
}

// runRecursion opens the recursion span (G0 rounds, multiplied into base
// rounds by the G0 emulation factor) with one portal-hop child per level
// and a leaf-movement child, then routes all packets from level 0. The
// span is closed against the recursion's returned G0 cost, making
// "children sum to the return value" a checked identity.
func (r *router) runRecursion() (int, error) {
	rec := r.led.Open("recursion", roundsUnit[0], r.h.G0.EmulationRounds)
	r.hops = rec + 1
	for l := 0; l < r.h.Levels; l++ {
		r.led.NewChild(rec, hopSpanName[l], roundsUnit[l], r.h.EmulationToG0(l))
	}
	r.leaf = r.led.NewChild(rec, "leaf-movement",
		roundsUnit[r.h.Levels], r.h.EmulationToG0(r.h.Levels))

	r.pkts = slices.Grow(r.pkts[:0], len(r.cur))[:len(r.cur)]
	for i := range r.pkts {
		r.pkts[i] = i
	}
	g0Cost, err := r.route(0, r.pkts, r.dst)
	if err != nil {
		return 0, err
	}
	r.led.CloseExpect(g0Cost)
	return g0Cost, nil
}

// finish verifies delivery and derives every Report figure from the
// ledger: per-level hop and leaf costs from their spans, G0Rounds from the
// recursion span, BaseRounds from the closed root.
func (r *router) finish(g0Cost int, delivered int) error {
	r.report.G0Rounds = g0Cost
	for l := range r.report.HopG0Rounds {
		r.report.HopG0Rounds[l] = r.led.Rolled(r.hops + l)
	}
	r.report.LeafG0Rounds = r.led.Rolled(r.leaf)
	r.report.BaseRounds = r.led.Close()
	if err := r.report.Costs.Err(); err != nil { // nil under RouteUnder
		return fmt.Errorf("route: cost ledger: %w", err)
	}
	for i := range r.cur {
		if r.cur[i] != r.dst[i] {
			return fmt.Errorf("route: packet %d stranded at vid %d, wanted %d", i, r.cur[i], r.dst[i])
		}
	}
	r.report.Delivered = delivered
	return nil
}

// prepare runs the §3.2 preparation step: one lazy walk of mixing-time
// length per packet from its source, landing each packet on a uniformly
// random virtual node. A traced router (RouteExact) records the walks, so
// the result's Paths are the journeys' physical prefixes.
func (r *router) prepare(reqs []Request, src *rngutil.Source) *randomwalk.Result {
	sources := make([]int32, len(reqs))
	for i, req := range reqs {
		sources[i] = int32(req.SrcNode)
	}
	res := randomwalk.Run(r.h.Base, sources, randomwalk.Config{
		Kind:      spectral.Lazy,
		Steps:     r.h.TauMix,
		Record:    r.trace != nil,
		Probe:     r.probe,
		TraceName: "prep",
	}, src.Stream("prep", 0))
	for i := range reqs {
		end := int(res.Ends[i])
		r.cur[i] = r.h.VM.VID(end, r.rng.IntN(r.h.VM.DegreeOf(end)))
	}
	r.chargePrep(res.Stats.Rounds)
	return res
}

// route recursively delivers packets pkts to targets, all of which lie in
// the same level-`level` part as the packets' current positions. It
// returns the measured cost in G0 rounds.
func (r *router) route(level int, pkts []int, targets []int32) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	if level == r.h.Levels {
		return r.routeLeaf(pkts, targets)
	}
	next := level + 1
	o := r.h.Overlay(next)
	portals := r.h.PortalsAt(next)

	// Phase A: local packets head to their final target; crossing
	// packets head to their portal toward the destination's digit.
	sc := &r.levels[level]
	sc.aTargets = slices.Grow(sc.aTargets[:0], len(pkts))[:len(pkts)]
	sc.bPkts = slices.Grow(sc.bPkts[:0], len(pkts))
	sc.bTargets = slices.Grow(sc.bTargets[:0], len(pkts))
	sc.crossEdges = slices.Grow(sc.crossEdges[:0], len(pkts))
	for idx, p := range pkts {
		cur, dst := r.cur[p], targets[idx]
		if o.SamePart(cur, dst) {
			sc.aTargets[idx] = dst
			continue
		}
		ref := portals.Get(cur, int(o.Digit[dst]))
		if ref.Portal < 0 {
			return 0, fmt.Errorf("route: no portal from vid %d toward digit %d at level %d",
				cur, o.Digit[dst], next)
		}
		sc.aTargets[idx] = ref.Portal
		sc.bPkts = append(sc.bPkts, p)
		sc.bTargets = append(sc.bTargets, dst)
		sc.crossEdges = append(sc.crossEdges, ref.CrossEdge)
	}
	cost, err := r.route(next, pkts, sc.aTargets)
	if err != nil {
		return 0, err
	}

	if len(sc.bPkts) == 0 {
		return cost, nil
	}

	// Hop: crossing packets traverse their portal's overlay-`level`
	// edge. Each directed overlay edge carries one packet per
	// overlay-`level` round, so the hop costs the maximum per-edge load.
	below := r.h.Overlay(level)
	for i, p := range sc.bPkts {
		e := sc.crossEdges[i]
		edge := below.Graph.Edge(int(e))
		other := int32(edge.U)
		if other == r.cur[p] {
			other = int32(edge.V)
		}
		if r.trace != nil {
			r.trace[p] = append(r.trace[p], traversal{
				level: level, edge: e, from: r.cur[p], to: other,
			})
		}
		r.cur[p] = other
	}
	maxLoad := r.maxEdgeLoad(sc.crossEdges)
	if maxLoad > r.report.MaxPortalLoad {
		r.report.MaxPortalLoad = maxLoad
	}
	// The hop happens between level-(level+1) parts over G_level edges:
	// maxLoad G_level rounds, converted by the span's multiplier.
	r.led.Add(r.hops+level, maxLoad)
	hopG0 := maxLoad * r.h.EmulationToG0(level)
	cost += hopG0
	r.g0Done += hopG0
	if r.probe != nil {
		r.mark(fmt.Sprintf("portal hop level %d", next))
	}

	// Phase B: crossing packets finish inside the destination part.
	bCost, err := r.route(next, sc.bPkts, sc.bTargets)
	if err != nil {
		return 0, err
	}
	return cost + bCost, nil
}

// maxEdgeLoad returns the largest number of times one edge occurs in
// edges (the packets of a hop phase queue per portal edge). It sorts a
// scratch copy and takes the longest run: a hop phase has far fewer
// packets than the overlay has edges, so this beats zeroing a per-edge
// counter array for every run.
func (r *router) maxEdgeLoad(edges []int32) int {
	r.loads = append(r.loads[:0], edges...)
	slices.Sort(r.loads)
	maxLoad, run := 0, 0
	for i, e := range r.loads {
		if i > 0 && e != r.loads[i-1] {
			run = 0
		}
		run++
		maxLoad = max(maxLoad, run)
	}
	return maxLoad
}

// routeLeaf moves packets along the leaf overlay's shortest paths and
// returns the measured cost in G0 rounds.
func (r *router) routeLeaf(pkts []int, targets []int32) (int, error) {
	r.paths, r.arena = slices.Grow(r.paths[:0], len(pkts)), r.arena[:0]
	for idx, p := range pkts {
		if r.cur[p] == targets[idx] {
			continue
		}
		path, err := r.leafPath(r.cur[p], targets[idx])
		if err != nil {
			return 0, err
		}
		if r.trace != nil {
			for j := 1; j < len(path); j++ {
				r.trace[p] = append(r.trace[p], traversal{
					level: r.h.Levels, edge: -1, from: path[j-1], to: path[j],
				})
			}
		}
		r.paths = append(r.paths, path)
		r.cur[p] = targets[idx]
	}
	if len(r.paths) == 0 {
		return 0, nil
	}
	res := pathsched.Schedule(r.paths)
	r.led.Add(r.leaf, res.Makespan)
	r.report.LeafSchedules++
	leafG0 := res.Makespan * r.h.EmulationToG0(r.h.Levels)
	r.g0Done += leafG0
	r.mark("leaf movement")
	return leafG0, nil
}

// leafPath writes the shortest path from src to dst within their (shared)
// leaf part into the arena and returns it, a node sequence starting at
// src. The path is read off src's route row on the leaf overlay, which is
// part of the hierarchy: searched the first time src is a source, shared
// by every later packet and run. When the arena has to grow, the batch's
// earlier paths stay behind in the block they were written to, intact.
func (r *router) leafPath(src, dst int32) ([]int32, error) {
	o := r.h.Overlay(r.h.Levels)
	if o.PartOf[src] != o.PartOf[dst] {
		return nil, fmt.Errorf("route: leaf path request across parts (%d vs %d)",
			o.PartOf[src], o.PartOf[dst])
	}
	start := len(r.arena)
	arena, ok := o.RouteRow(src).AppendPath(r.arena, dst)
	if !ok {
		return nil, fmt.Errorf("route: vid %d unreachable from %d in leaf part %d",
			dst, src, o.PartOf[src])
	}
	r.arena = arena
	return arena[start:len(arena):len(arena)], nil
}

// hopSpanName[l] and roundsUnit[l] are the ledger names of level l's
// spans, formatted once at start-up instead of once per run. A hierarchy
// has fewer than 64 levels: each one divides the part size by β ≥ 2.
var hopSpanName, roundsUnit = func() (hops, units [64]string) {
	for l := range hops {
		hops[l] = fmt.Sprintf("portal-hops-level-%d", l+1)
		units[l] = fmt.Sprintf("G%d rounds", l)
	}
	return
}()
