// Package mincut provides the (1+ε)-flavored approximate minimum cut the
// paper obtains from its MST machinery (§4's closing remark), plus an
// exact Stoer–Wagner verifier.
//
// The paper defers the min-cut details to its full version, pointing to
// the tree-packing framework of Ghaffari–Haeupler/Nanongkai–Su. The
// documented substitution implemented here is the classic greedy
// tree-packing approach: pack k = O(log n) spanning trees, each a minimum
// spanning tree under edge weights equal to current packing loads; for
// every packed tree, examine all cuts that 1-respect it (one tree edge
// removed) and return the lightest cut found. Bridges and other small
// cuts are 1-respected by every spanning tree, and sparse planted cuts
// are found with high probability; the experiment (E10) quantifies the
// approximation against Stoer–Wagner.
//
// In the distributed setting each packed tree is one MST computation on
// the hierarchy and the 1-respecting cut values are computed by subtree
// aggregation (two tree-routing sweeps); callers charge rounds
// accordingly via the TreesUsed count.
package mincut

import (
	"fmt"
	"math"
	"math/rand/v2"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
)

// ApproxResult is the outcome of the tree-packing approximation.
type ApproxResult struct {
	// CutSize is the best (smallest) cut value found.
	CutSize int
	// Side is one side of that cut (node membership flags).
	Side []bool
	// TreesUsed is the number of packed trees (for round accounting:
	// one hierarchical MST plus two tree sweeps per tree).
	TreesUsed int
}

// Approx packs `trees` spanning trees greedily and returns the best
// 1-respecting cut. If trees <= 0, 2·⌈log₂ n⌉ trees are packed.
func Approx(g *graph.Graph, trees int, rng *rand.Rand) (*ApproxResult, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("mincut: %w", graph.ErrDisconnected)
	}
	n := g.N()
	if trees <= 0 {
		trees = 2 * int(math.Ceil(math.Log2(float64(n))))
	}
	load := make([]float64, g.M())
	best := &ApproxResult{CutSize: g.M() + 1, TreesUsed: trees}
	work := g.Clone()
	for t := 0; t < trees; t++ {
		// MST under current loads; small random jitter breaks ties so
		// repeated trees explore different structures.
		for id := range load {
			work.SetWeight(id, load[id]+rng.Float64()*1e-3)
		}
		treeEdges, _ := mstbase.Kruskal(work)
		for _, id := range treeEdges {
			load[id]++
		}
		cut, side := best1Respecting(g, treeEdges)
		if cut < best.CutSize {
			best.CutSize = cut
			best.Side = side
		}
	}
	return best, nil
}

// PackingCharge builds the distributed round charge of a packing run: each
// of the TreesUsed packed trees costs one hierarchical MST (the
// construction is shared and excluded, as per the package comment on
// subtree aggregation riding the same channel). perTree is a measured MST
// run on the same hierarchy; its algorithm span is grafted under a
// tree-packing span whose multiplier repeats it per tree. Returns the
// ledger and its root total in base rounds.
func PackingCharge(res *ApproxResult, perTree *mst.Result) (*cost.Ledger, int) {
	led := cost.New("mincut-packing", "base rounds")
	led.Open("tree-packing", "base rounds per tree", res.TreesUsed)
	if perTree.Costs != nil {
		if alg := perTree.Costs.Root.Child("algorithm"); alg != nil {
			led.Attach(alg)
		} else {
			led.Charge(perTree.AlgorithmRounds)
		}
	} else {
		led.Charge(perTree.AlgorithmRounds)
	}
	led.CloseExpect(perTree.AlgorithmRounds)
	total := led.CloseExpect(res.TreesUsed * perTree.AlgorithmRounds)
	return led, total
}

// best1Respecting returns the lightest cut obtained by removing a single
// edge of the given spanning tree, together with the smaller side.
func best1Respecting(g *graph.Graph, treeEdges []int) (int, []bool) {
	n := g.N()
	// Build rooted tree structure.
	adj := make([][]int, n) // neighbor via tree edge
	for _, id := range treeEdges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// Euler tour times for subtree membership tests.
	tin := make([]int, n)
	tout := make([]int, n)
	parent := make([]int, n)
	order := make([]int, 0, n)
	for i := range parent {
		parent[i] = -1
		tin[i] = -1
	}
	timer := 0
	stack := []int{0}
	parent[0] = 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if tin[v] < 0 {
			tin[v] = timer
			timer++
			order = append(order, v)
			for _, u := range adj[v] {
				if parent[u] < 0 {
					parent[u] = v
					stack = append(stack, u)
				}
			}
		} else {
			tout[v] = timer
			timer++
			stack = stack[:len(stack)-1]
		}
	}
	// tout was set when popping; ensure all got both stamps (tree spans).
	inSubtree := func(x, c int) bool { return tin[c] <= tin[x] && tout[x] <= tout[c] }

	bestCut := g.M() + 1
	bestChild := -1
	for _, c := range order {
		if c == 0 {
			continue
		}
		cut := 0
		for _, e := range g.Edges() {
			if inSubtree(e.U, c) != inSubtree(e.V, c) {
				cut++
			}
		}
		if cut < bestCut {
			bestCut = cut
			bestChild = c
		}
	}
	side := make([]bool, n)
	if bestChild >= 0 {
		for v := 0; v < n; v++ {
			side[v] = inSubtree(v, bestChild)
		}
	}
	return bestCut, side
}

// StoerWagner computes the exact global minimum cut of an unweighted (or
// weighted) graph in O(n³) time and returns the cut value and one side.
func StoerWagner(g *graph.Graph) (float64, []bool, error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("mincut: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return 0, nil, fmt.Errorf("mincut: %w", graph.ErrDisconnected)
	}
	// Dense weight matrix; parallel edges accumulate.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, e := range g.Edges() {
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	// members[i] = original nodes merged into supernode i.
	members := make([][]int, n)
	active := make([]bool, n)
	for i := range members {
		members[i] = []int{i}
		active[i] = true
	}
	bestVal := math.Inf(1)
	var bestSide []int

	for phase := n; phase > 1; phase-- {
		// Maximum adjacency ordering.
		weights := make([]float64, n)
		added := make([]bool, n)
		var prev, last int = -1, -1
		for step := 0; step < phase; step++ {
			sel := -1
			for v := 0; v < n; v++ {
				if active[v] && !added[v] && (sel < 0 || weights[v] > weights[sel]) {
					sel = v
				}
			}
			added[sel] = true
			prev, last = last, sel
			for v := 0; v < n; v++ {
				if active[v] && !added[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		// Cut of the phase: last added vs the rest.
		if weights[last] < bestVal {
			bestVal = weights[last]
			bestSide = append([]int(nil), members[last]...)
		}
		// Merge last into prev.
		for v := 0; v < n; v++ {
			if v != prev && v != last && active[v] {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		members[prev] = append(members[prev], members[last]...)
		active[last] = false
	}
	side := make([]bool, n)
	for _, v := range bestSide {
		side[v] = true
	}
	return bestVal, side, nil
}
