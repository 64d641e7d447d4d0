// Package mstbase implements the classical distributed MST baselines the
// paper competes against, with measured round accounting, and the one
// host-side Borůvka kernel every MST variant of the repo computes its
// fragments and minimum-weight outgoing edges with:
//
//   - GHS: synchronous flood-based Borůvka in the style of Gallager,
//     Humblet and Spira. Per iteration, every node exchanges fragment IDs
//     with its neighbors (1 round) and each fragment convergecasts its
//     minimum-weight outgoing edge over its own fragment tree and floods
//     the decision back (2 tree depths each way). Fragment trees are the
//     MST edges chosen so far, so iteration cost grows with fragment
//     diameter — the classic Õ(n) behaviour on high-diameter fragments.
//
//   - KP: a Garay–Kutten–Peleg-style Õ(D+√n) algorithm. Phase 1 runs
//     controlled Borůvka, where only fragments smaller than √n select
//     outgoing edges, until every fragment has ≥ √n nodes. Phase 2 builds
//     a BFS tree and finishes Borůvka globally: each remaining iteration
//     pipelines the ≤ n/√n fragment minima up the BFS tree (depth + #fragments
//     rounds) and floods decisions back down.
//
// Both produce the exact MST (verified against Kruskal in tests); their
// round counts are the baseline curves of experiment E1.
//
// The kernel is the fragments type: dense fragment labels, the MWOE scan
// (ScanMWOE), one merge-and-relabel and one loop. GHS, the two phases of
// KP and cliquealgo.MST (through Boruvka) are charging policies over that
// loop; mst.Run keeps its own virtual-tree merge (Lemma 4.1) and calls
// ScanMWOE on its forest's labels.
//
// Edge order: every baseline reports its tree iteration by iteration, and
// within an iteration in ascending edge ID.
package mstbase

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"almostmix/internal/graph"
)

// Result is the outcome of a baseline MST computation.
type Result struct {
	// Edges are the chosen MST edge IDs: in the package's edge order from
	// GHS and KP, first chosen first in node order from GHSNetwork.
	Edges      []int
	Weight     float64
	Rounds     int
	Iterations int
	// Phase1Rounds/Phase2Rounds decompose KP's cost (zero for GHS).
	Phase1Rounds, Phase2Rounds int
}

// MWOE is a fragment's minimum-weight outgoing edge as ScanMWOE leaves it:
// the edge ID (-1 when no edge leaves the fragment) and the edge's endpoint
// Y outside the fragment.
type MWOE struct {
	Edge int
	Y    int32
	w    float64
}

// offer replaces best by the edge id toward y of weight w when that is
// lighter, equal weights falling to the smaller edge ID.
func (best *MWOE) offer(id int, y int32, w float64) {
	if best.Edge < 0 || w < best.w || (w == best.w && id < best.Edge) {
		*best = MWOE{Edge: id, Y: y, w: w}
	}
}

// ScanMWOE finds every fragment's minimum-weight outgoing edge. label[v]
// names node v's fragment by the ID of one of its nodes — the smallest for
// the baselines here, the virtual-tree root for mst.Run — and fragment f's
// edge lands at out[f]; out has one entry per node, and the entries no
// fragment is named by keep Edge -1. (weight, edge ID) is a total order on
// the edges, so the edges any set of fragments picks close no cycle, equal
// weights and parallel edges included. The scan writes only into out.
func ScanMWOE(g *graph.Graph, label []int32, out []MWOE) {
	for i := range out {
		out[i] = MWOE{Edge: -1}
	}
	for id, e := range g.Edges() {
		fu, fv := label[e.U], label[e.V]
		if fu == fv {
			continue
		}
		out[fu].offer(id, int32(e.V), e.W)
		out[fv].offer(id, int32(e.U), e.W)
	}
}

// fragments is the state of a Borůvka on a connected graph: the forest of
// chosen edges and, per node, the fragment (tree) it is in. A fragment's ID
// is its smallest node ID; what describes a fragment sits at that index.
type fragments struct {
	g      *graph.Graph
	label  []int32 // node → fragment ID
	size   []int32 // at a fragment's ID: its node count
	inTree []bool  // edge ID → chosen
	count  int     // fragments left
	depth  int     // the deepest fragment tree, in hops from the fragment's ID node
	edges  []int   // the chosen edges, in the package's edge order

	// Scratch, reused by every iteration.
	mwoe  []MWOE
	picks []int   // the edges this iteration's selecting fragments picked
	queue []int32 // relabel: one fragment's nodes in BFS order
	level []int32 // relabel: BFS level per node, -1 = not reached yet
}

// newFragments returns the singleton forest: every node its own fragment.
func newFragments(g *graph.Graph) *fragments {
	n := g.N()
	f := &fragments{
		g:      g,
		label:  make([]int32, n),
		size:   make([]int32, n),
		inTree: make([]bool, g.M()),
		count:  n,
		mwoe:   make([]MWOE, n),
		queue:  make([]int32, 0, n),
		level:  make([]int32, n),
	}
	for v := range f.label {
		f.label[v] = int32(v)
		f.size[v] = 1
	}
	return f
}

// run is the Borůvka loop. Every iteration scans, lets each fragment of
// fewer than below nodes pick its MWOE (below = n lets every fragment
// pick: the loop ends at one fragment), reports the fragment count and the
// deepest fragment tree it starts from to charge, and merges. It stops at
// one fragment, or when no fragment is small enough to pick.
func (f *fragments) run(below int, charge func(frags, depth int)) {
	for f.count > 1 {
		ScanMWOE(f.g, f.label, f.mwoe)
		f.picks = f.picks[:0]
		for v, l := range f.label {
			if int(l) == v && int(f.size[v]) < below && f.mwoe[v].Edge >= 0 {
				f.picks = append(f.picks, f.mwoe[v].Edge)
			}
		}
		if len(f.picks) == 0 {
			return
		}
		charge(f.count, f.depth)
		f.merge()
	}
}

// merge adds the picked edges in ascending edge-ID order — an edge two
// fragments picked once — and relabels with one BFS over the chosen edges
// from every node in ascending ID order: the first node of a fragment it
// meets is the fragment's smallest, hence its ID, and the same pass counts
// the fragments, sizes them and measures the deepest tree.
func (f *fragments) merge() {
	slices.Sort(f.picks)
	for _, id := range slices.Compact(f.picks) {
		f.inTree[id] = true
		f.edges = append(f.edges, id)
	}
	for v := range f.level {
		f.level[v] = -1
	}
	f.count, f.depth = 0, 0
	for root := range f.label {
		if f.level[root] >= 0 {
			continue
		}
		f.level[root] = 0
		queue := append(f.queue[:0], int32(root))
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			f.label[v] = int32(root)
			for _, h := range f.g.Neighbors(int(v)) {
				if f.inTree[h.EdgeID()] && f.level[h.To] < 0 {
					f.level[h.To] = f.level[v] + 1
					queue = append(queue, h.To)
				}
			}
		}
		f.count++
		f.size[root] = int32(len(queue))
		f.depth = max(f.depth, int(f.level[queue[len(queue)-1]])) // BFS order: the last node is a deepest one
	}
}

// Boruvka runs merge-all Borůvka on a connected graph — every fragment
// picks its MWOE in every iteration — and returns the MST's edge IDs in the
// package's edge order. charge is called once per iteration, before the
// merge, with the number of fragments and the deepest fragment tree (hops
// from the fragment's smallest node) the iteration starts from: what an
// iteration costs is the caller's model.
func Boruvka(g *graph.Graph, charge func(frags, depth int)) []int {
	f := newFragments(g)
	f.run(g.N(), charge)
	return f.edges
}

// GHS runs flood-based synchronous Borůvka and returns the MST with the
// measured round count.
func GHS(g *graph.Graph) (*Result, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("mstbase: %w", graph.ErrDisconnected)
	}
	res := &Result{}
	res.Edges = Boruvka(g, func(_, depth int) {
		res.Iterations++
		// 1 round of fragment-ID exchange, then convergecast up and
		// flood down the fragment tree (depth rounds each, twice: once
		// to agree on the MWOE, once to announce the merge).
		res.Rounds += 1 + 4*depth + 2
	})
	res.Weight = g.TotalWeight(res.Edges)
	return res, nil
}

// KP runs the two-phase Õ(D+√n) algorithm and returns the MST with the
// measured round count.
func KP(g *graph.Graph) (*Result, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("mstbase: %w", graph.ErrDisconnected)
	}
	f := newFragments(g)
	res := &Result{}

	// Phase 1: controlled Borůvka — only fragments below √n nodes select,
	// at GHS's per-iteration cost.
	sqrtN := int(math.Ceil(math.Sqrt(float64(g.N()))))
	f.run(sqrtN, func(_, depth int) {
		res.Iterations++
		res.Phase1Rounds += 1 + 4*depth + 2
	})

	// Phase 2: finish over a global BFS tree with pipelined upcasts.
	bfsDepth := slices.Max(g.BFSDist(0))
	res.Phase2Rounds += bfsDepth // building the BFS tree
	f.run(g.N(), func(frags, _ int) {
		res.Iterations++
		// One round of fragment-ID exchange, then the ≤ frags fragment
		// minima pipeline up the BFS tree and decisions flood back.
		res.Phase2Rounds += 1 + 2*(bfsDepth+frags)
	})
	res.Rounds = res.Phase1Rounds + res.Phase2Rounds
	res.Edges = f.edges
	res.Weight = g.TotalWeight(res.Edges)
	return res, nil
}

// Kruskal computes the MST centrally (sorting by weight with edge-ID tie
// break, union-find) and returns the chosen edge IDs and total weight. It
// is the ground truth the distributed algorithms are verified against.
func Kruskal(g *graph.Graph) ([]int, float64) {
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	edges := g.Edges()
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := edges[ids[a]], edges[ids[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ids[a] < ids[b]
	})
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	chosen := make([]int, 0, g.N()-1)
	total := 0.0
	for _, id := range ids {
		e := edges[id]
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		parent[ru] = rv
		chosen = append(chosen, id)
		total += e.W
	}
	return chosen, total
}
