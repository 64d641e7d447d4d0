package mstbase

// Wire adapters for the transport layer (internal/transport): the
// per-shard harvest of the node-program GHS. Its payloads cross the wire
// through congest's one codec, under GHSLayouts (ghsnet.go).

import "almostmix/internal/congest"

// GHSChosenEdges returns the MST edge IDs chosen by nodes [lo, hi) of a
// GHSPrograms run, in node order with per-node emission order kept and
// no cross-node dedup: the raw stream GHSTreeEdges turns into the tree,
// whether it was read off the programs in one piece (GHSNetwork) or
// harvested node by node and shipped (the ghs workloads).
func GHSChosenEdges(programs []congest.Program, lo, hi int) []int {
	var edges []int
	for v := lo; v < hi; v++ {
		edges = append(edges, programs[v].(*ghsNode).chosen...)
	}
	return edges
}

// GHSTreeEdges reduces the chosen-edge stream of all nodes, in node order,
// to the run's tree: a core edge is chosen from both its ends, so the
// stream is deduplicated, first occurrence kept. Every ID must be below m,
// the graph's edge count.
func GHSTreeEdges(m int, chosen []int) []int {
	var edges []int
	seen := make([]bool, m)
	for _, id := range chosen {
		if !seen[id] {
			seen[id] = true
			edges = append(edges, id)
		}
	}
	return edges
}
