package embed

import (
	"fmt"

	"almostmix/internal/graph"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
)

// Overlay is one level of the hierarchical embedding: a virtual graph on
// the 2m virtual nodes, together with, for each overlay edge, the path in
// the level below along which it is embedded.
//
// Level 0 is the Erdős–Rényi-style graph G0, embedded in the base graph
// (paths are physical node sequences). Level ℓ ≥ 1 is a disjoint union of
// per-part random graphs, embedded in level ℓ−1 (paths are virtual node
// sequences over the level-(ℓ−1) overlay).
type Overlay struct {
	// Level is 0 for G0, ℓ for Gℓ.
	Level int
	// Graph is the overlay topology on virtual-node indices.
	Graph *graph.Graph
	// Paths[e] is the embedded path of overlay edge e in the level
	// below (physical nodes for level 0), stored once, oriented from
	// edge e's U endpoint to its V endpoint; a reader crossing from V
	// reads it backward.
	Paths [][]int32
	// PartOf[vid] is the part index of vid at this level; level 0 has a
	// single part 0. Part indices satisfy
	// part_ℓ = part_{ℓ-1}·β + digit_ℓ, so siblings share a parent quotient.
	PartOf []int32
	// Digit[vid] is this level's β-ary partition digit (level 0: 0).
	Digit []int32
	// NumParts is β^level (parts may be empty).
	NumParts int
	// ConstructionRounds is the measured cost of building this level,
	// in rounds of the level below (physical rounds for level 0).
	ConstructionRounds int
	// EmulationRounds is the measured cost of one full communication
	// round of this overlay (one message each way on every overlay
	// edge), in rounds of the level below.
	EmulationRounds int
	// walkRounds and replayRounds split ConstructionRounds into the
	// walk-execution and endpoint-replay components, recorded for the
	// construction cost ledger's child spans.
	walkRounds, replayRounds int
	// routes is the on-demand routing table behind RouteRow.
	routes routeTable
}

// arc is one overlay edge as a builder keeps it: the walk from virtual
// node from ended at virtual node to.
type arc struct{ from, to int32 }

// overlayGraph builds an overlay topology on n virtual nodes in one pass:
// edge k joins arcs[k].from and arcs[k].to, with the edge IDs and
// adjacency order that adding the arcs one by one would give.
func overlayGraph(n int, arcs []arc) *graph.Graph {
	return graph.Build(n, func(add func(u, v int, w float64)) {
		for _, a := range arcs {
			add(int(a.from), int(a.to), 1)
		}
	})
}

// embedWalks finishes an overlay whose edge k was found by walk kept[k] of
// res on below: the kept walks become the embedded paths, ConstructionRounds
// is the walk execution plus replays reverse deliveries along those paths,
// and EmulationRounds schedules the same replay's link runs both ways.
func (o *Overlay) embedWalks(below *graph.Graph, res *randomwalk.Result, kept []int, replays int) {
	paths, links, reverseRounds := res.Paths(kept)
	o.Paths = paths
	o.walkRounds = res.Stats.Rounds
	o.replayRounds = replays * reverseRounds
	o.ConstructionRounds = o.walkRounds + o.replayRounds
	o.EmulationRounds = max(1, pathsched.ScheduleBothWays(below, links).Makespan)
}

// SamePart reports whether two virtual nodes are in the same part at this
// level.
func (o *Overlay) SamePart(a, b int32) bool { return o.PartOf[a] == o.PartOf[b] }

// PartSizes returns the size of every non-empty part, keyed by part index.
func (o *Overlay) PartSizes() map[int32]int {
	sizes := make(map[int32]int)
	for _, p := range o.PartOf {
		sizes[p]++
	}
	return sizes
}

// Validate checks that every embedded path is a walk in the provided
// level-below adjacency and connects the edge's endpoints. project maps
// an overlay endpoint into the space path entries live in (the owner's
// physical node for level 0, identity for upper levels).
func (o *Overlay) Validate(adjacentBelow func(a, b int32) bool, project func(vid int32) int32) error {
	for e, edge := range o.Graph.Edges() {
		p := o.Paths[e]
		if len(p) == 0 {
			return fmt.Errorf("embed: level %d edge %d has empty path", o.Level, e)
		}
		u, v := project(int32(edge.U)), project(int32(edge.V))
		endsOK := p[0] == u && p[len(p)-1] == v
		if !endsOK {
			return fmt.Errorf("embed: level %d edge %d=(%d,%d) path ends (%d,%d)",
				o.Level, e, edge.U, edge.V, p[0], p[len(p)-1])
		}
		if err := pathsched.Validate([][]int32{p}, adjacentBelow); err != nil {
			return fmt.Errorf("embed: level %d edge %d: %w", o.Level, e, err)
		}
	}
	return nil
}
