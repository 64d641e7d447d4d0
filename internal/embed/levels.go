package embed

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/kwise"
	"almostmix/internal/randomwalk"
	"almostmix/internal/spectral"
)

// buildLevel constructs overlay Gℓ (ℓ ≥ 1) on top of `below` (G_{ℓ−1}),
// following §3.1.2: every virtual node starts Θ(β·log) 2Δ-regular walks
// on the level below (whose stationary distribution is uniform within
// each part); walks ending in the walker's own level-ℓ part are
// "successful" and each successful walk contributes one uniformly random
// same-part neighbor, embedded along the recorded walk path.
//
// digits[vid] is the β-ary digit of vid at level ℓ; the level-ℓ part of a
// node is partOf_{ℓ−1}·β + digit.
func buildLevel(level int, below *Overlay, digits []int32, r resolved, rng *rand.Rand) (*Overlay, error) {
	m2 := below.Graph.N()
	overlay := &Overlay{
		Level:    level,
		PartOf:   make([]int32, m2),
		Digit:    make([]int32, m2),
		NumParts: below.NumParts * r.beta,
	}
	for vid := 0; vid < m2; vid++ {
		d := digits[vid]
		if d < 0 || int(d) >= r.beta {
			return nil, fmt.Errorf("embed: level %d digit %d out of range at vid %d", level, d, vid)
		}
		overlay.Digit[vid] = d
		overlay.PartOf[vid] = below.PartOf[vid]*int32(r.beta) + d
	}

	// Walk length: past the mixing time of the per-part random graphs,
	// which are Θ(log)-degree expanders: O(log of the part size) steps.
	maxBelow := 0
	for _, s := range below.PartSizes() {
		if s > maxBelow {
			maxBelow = s
		}
	}
	walkLen := 2*log2ceil(maxBelow) + 4

	walksPerNode := int(r.successMargin * float64(r.overlayDegree) * float64(r.beta))
	sources := make([]int32, 0, m2*walksPerNode)
	for vid := 0; vid < m2; vid++ {
		for j := 0; j < walksPerNode; j++ {
			sources = append(sources, int32(vid))
		}
	}
	res := randomwalk.Run(below.Graph, sources, randomwalk.Config{
		Kind:   spectral.Regular,
		Steps:  walkLen,
		Record: true,
	}, rng)

	partSizes := make([]int, overlay.NumParts)
	for _, p := range overlay.PartOf {
		partSizes[p]++
	}
	// kept lists the walks that became overlay edges, in edge order, and
	// arcs the edges.
	kept := make([]int, 0, m2*r.overlayDegree)
	arcs := make([]arc, 0, m2*r.overlayDegree)
	short := 0
	for vid := 0; vid < m2; vid++ {
		base := vid * walksPerNode
		part := overlay.PartOf[vid]
		taken := 0
		for j := 0; j < walksPerNode && taken < r.overlayDegree; j++ {
			w := base + j
			end := res.Ends[w]
			if int(end) == vid || overlay.PartOf[end] != part {
				continue
			}
			kept = append(kept, w)
			arcs = append(arcs, arc{int32(vid), end})
			taken++
		}
		// A node in a part of s nodes can only expect successes in
		// proportion to s−1, so the degree target is capped by the part
		// size (tiny leaf parts are near-complete multigraphs anyway).
		target := r.overlayDegree
		if limit := partSizes[part] - 1; limit < target {
			target = limit
		}
		if taken < target/2 {
			short++
		}
	}
	if short > 0 {
		return nil, fmt.Errorf("embed: level %d: %d nodes got under half the target degree %d; increase SuccessMargin",
			level, short, r.overlayDegree)
	}
	overlay.Graph = overlayGraph(m2, arcs)
	// Every part must induce a connected component for routing to work.
	if err := checkPartsConnected(overlay, partSizes); err != nil {
		return nil, err
	}
	overlay.embedWalks(below.Graph, res, kept, 1)
	return overlay, nil
}

// checkPartsConnected verifies each part of the overlay induces a single
// connected component; sizes[part] is the part's node count.
func checkPartsConnected(o *Overlay, sizes []int) error {
	m2 := o.Graph.N()
	visited := make([]bool, m2)
	for start := 0; start < m2; start++ {
		if visited[start] {
			continue
		}
		// BFS within the part.
		part := o.PartOf[start]
		size := 0
		queue := []int{start}
		visited[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			size++
			for _, h := range o.Graph.Neighbors(v) {
				if !visited[h.To] && o.PartOf[h.To] == part {
					visited[h.To] = true
					queue = append(queue, int(h.To))
				}
			}
		}
		if total := sizes[part]; size != total {
			return fmt.Errorf("embed: level %d part %d disconnected: component %d of %d nodes",
				o.Level, part, size, total)
		}
	}
	return nil
}

// computeDigits evaluates the shared hash on every virtual node's encoded
// ID and returns the per-level digit table digits[level-1][vid].
func computeDigits(vm *VirtualMap, hash *kwise.Family, beta, levels int) [][]int32 {
	digits := make([][]int32, levels)
	for l := range digits {
		digits[l] = make([]int32, vm.Count())
	}
	for vid := 0; vid < vm.Count(); vid++ {
		lbl := hash.LeafLabel(vm.EncodedID(int32(vid)), beta, levels)
		for l := 0; l < levels; l++ {
			digits[l][vid] = int32(lbl.Digits[l])
		}
	}
	return digits
}
