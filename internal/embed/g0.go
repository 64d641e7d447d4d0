package embed

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/graph"
	"almostmix/internal/randomwalk"
	"almostmix/internal/spectral"
)

// buildG0 constructs the level-zero overlay of §3.1.1: every virtual node
// starts walksPerVNode lazy random walks of walkLen (walkLenFactor·τ_mix)
// steps in the base graph; each walk endpoint, being (near-)stationary,
// lands on a physical node with probability proportional to its degree,
// and choosing a uniform virtual node of that endpoint yields a uniform
// virtual node overall. Each virtual node keeps degreeG0 sampled out-neighbors, and the
// recorded walk becomes the embedded path of the overlay edge.
//
// The returned overlay's ConstructionRounds is the measured cost in
// physical rounds: the forward walk execution plus the backward replay
// that informs sources of their endpoints plus the second forward replay
// that informs endpoints of their in-edges (three traversals, as in the
// paper).
func buildG0(g *graph.Graph, vm *VirtualMap, r resolved, walkLen int, rng *rand.Rand) (*Overlay, error) {
	m2 := vm.Count()
	sources := make([]int32, 0, m2*r.walksPerVNode)
	for vid := 0; vid < m2; vid++ {
		owner := int32(vm.Owner(int32(vid)))
		for j := 0; j < r.walksPerVNode; j++ {
			sources = append(sources, owner)
		}
	}
	res := randomwalk.Run(g, sources, randomwalk.Config{
		Kind:   spectral.Lazy,
		Steps:  walkLen,
		Record: true,
	}, rng)

	// kept lists the walks that became overlay edges, in edge order, and
	// arcs the edges.
	kept := make([]int, 0, m2*r.degreeG0)
	arcs := make([]arc, 0, m2*r.degreeG0)
	// walkOf[target] is the latest walk that drew target as its endpoint
	// vid. A vid's walks are base..base+walksPerVNode−1 and vids ascend, so
	// an entry ≥ base was written for the current vid.
	walkOf := make([]int, m2)
	for i := range walkOf {
		walkOf[i] = -1
	}
	order := make([]int32, 0, r.walksPerVNode)
	for vid := 0; vid < m2; vid++ {
		base := vid * r.walksPerVNode
		// Deduplicate candidate endpoints, then keep a random
		// degreeG0-subset (the paper keeps exactly 100·log n of the at
		// least 100·log n distinct endpoints).
		order = order[:0]
		for j := 0; j < r.walksPerVNode; j++ {
			w := base + j
			endPhys := int(res.Ends[w])
			target := vm.VID(endPhys, rng.IntN(vm.DegreeOf(endPhys)))
			if int(target) == vid || walkOf[target] >= base {
				continue
			}
			walkOf[target] = w
			order = append(order, target)
		}
		take := r.degreeG0
		if take > len(order) {
			take = len(order)
		}
		// Partial Fisher–Yates to sample `take` targets uniformly.
		for i := 0; i < take; i++ {
			j := i + rng.IntN(len(order)-i)
			order[i], order[j] = order[j], order[i]
			target := order[i]
			kept = append(kept, walkOf[target])
			arcs = append(arcs, arc{int32(vid), target})
		}
	}

	overlay := &Overlay{
		Level:    0,
		Graph:    overlayGraph(m2, arcs),
		PartOf:   make([]int32, m2),
		Digit:    make([]int32, m2),
		NumParts: 1,
	}
	if !overlay.Graph.IsConnected() {
		return nil, fmt.Errorf("embed: G0 is disconnected (%d virtual nodes, %d edges); increase DegreeG0C or WalksC",
			m2, overlay.Graph.M())
	}
	overlay.embedWalks(g, res, kept, 2)
	return overlay, nil
}
