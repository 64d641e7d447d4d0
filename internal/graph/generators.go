package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// The deterministic generators stream their edge sequence through
// graph.Build: edges are emitted twice (count, then fill) instead of
// materialized in an intermediate list, and the adjacency lands in one
// flat half-edge arena — construction at n ≥ 10^6 costs a handful of
// allocations. Randomized generators draw their edge list once and hand
// it to FromEdges (their streams cannot be replayed without buffering).

// Ring returns the n-node cycle C_n (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 0; v < n; v++ {
			add(v, (v+1)%n, 1)
		}
	})
}

// RingLattice returns the ring lattice: n nodes on a cycle, each joined
// to its k nearest neighbors on each side (degree 2k; the unrewired
// Watts–Strogatz substrate). Deterministic and constant-degree, it is
// the graph family the engine scale benchmarks stream at n ≥ 10^6.
func RingLattice(n, k int) *Graph {
	if k < 1 || 2*k >= n {
		panic("graph: ring lattice needs 1 <= k < n/2")
	}
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 0; v < n; v++ {
			for j := 1; j <= k; j++ {
				add(v, (v+j)%n, 1)
			}
		}
	})
}

// Path returns the n-node path P_n.
func Path(n int) *Graph {
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 0; v+1 < n; v++ {
			add(v, v+1, 1)
		}
	})
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	return Build(n, func(add func(u, v int, w float64)) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				add(u, v, 1)
			}
		}
	})
}

// Star returns the star graph with node 0 at the center and n-1 leaves.
func Star(n int) *Graph {
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 1; v < n; v++ {
			add(0, v, 1)
		}
	})
}

// BinaryTree returns a complete binary tree on n nodes, with node 0 as the
// root and node v's children at 2v+1 and 2v+2.
func BinaryTree(n int) *Graph {
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 1; v < n; v++ {
			add((v-1)/2, v, 1)
		}
	})
}

// Torus returns the rows×cols 2-dimensional torus (wrap-around grid).
// Both dimensions must be at least 3 so that no duplicate edges arise.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: torus needs both dimensions >= 3")
	}
	id := func(r, c int) int { return r*cols + c }
	return Build(rows*cols, func(add func(u, v int, w float64)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				add(id(r, c), id((r+1)%rows, c), 1)
				add(id(r, c), id(r, (c+1)%cols), 1)
			}
		}
	})
}

// Grid returns the rows×cols 2-dimensional grid (no wrap-around).
func Grid(rows, cols int) *Graph {
	id := func(r, c int) int { return r*cols + c }
	return Build(rows*cols, func(add func(u, v int, w float64)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if r+1 < rows {
					add(id(r, c), id(r+1, c), 1)
				}
				if c+1 < cols {
					add(id(r, c), id(r, c+1), 1)
				}
			}
		}
	})
}

// Hypercube returns the dim-dimensional hypercube on 2^dim nodes.
func Hypercube(dim int) *Graph {
	n := 1 << dim
	return Build(n, func(add func(u, v int, w float64)) {
		for v := 0; v < n; v++ {
			for b := 0; b < dim; b++ {
				u := v ^ (1 << b)
				if u > v {
					add(v, u, 1)
				}
			}
		}
	})
}

// Lollipop returns a clique on cliqueSize nodes with a path of pathLen
// extra nodes attached to clique node 0. It is the low-expansion,
// large-mixing-time family used to exhibit the regime where the paper's
// algorithm degrades (the lower-bound-style graphs of Das Sarma et al.
// have a similar bottleneck flavor).
func Lollipop(cliqueSize, pathLen int) *Graph {
	return Build(cliqueSize+pathLen, func(add func(u, v int, w float64)) {
		for u := 0; u < cliqueSize; u++ {
			for v := u + 1; v < cliqueSize; v++ {
				add(u, v, 1)
			}
		}
		prev := 0
		for i := 0; i < pathLen; i++ {
			v := cliqueSize + i
			add(prev, v, 1)
			prev = v
		}
	})
}

// Barbell returns two cliques of size k joined by a path of bridgeLen
// intermediate nodes (bridgeLen may be zero, giving a single bridge edge).
// Its minimum cut is 1, making it the canonical min-cut test graph.
func Barbell(k, bridgeLen int) *Graph {
	return Build(2*k+bridgeLen, func(add func(u, v int, w float64)) {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				add(u, v, 1)
				add(k+u, k+v, 1)
			}
		}
		prev := 0
		for i := 0; i < bridgeLen; i++ {
			v := 2*k + i
			add(prev, v, 1)
			prev = v
		}
		add(prev, k, 1)
	})
}

// Gnp returns an Erdős–Rényi random graph G(n, p): each of the n·(n-1)/2
// potential edges is present independently with probability p.
func Gnp(n int, p float64, r *rand.Rand) *Graph {
	if p >= 1 {
		return Complete(n)
	}
	var edges []Edge
	for u := 0; u < n && p > 0; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, Edge{U: u, V: v, W: 1})
			}
		}
	}
	return FromEdges(n, edges)
}

// ConnectedGnp draws G(n, p) samples until a connected one is found, up to
// 100 attempts. Use p above the connectivity threshold ln(n)/n.
func ConnectedGnp(n int, p float64, r *rand.Rand) (*Graph, error) {
	for attempt := 0; attempt < 100; attempt++ {
		g := Gnp(n, p, r)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected G(%d,%g) in 100 attempts: %w", n, p, ErrDisconnected)
}

// RandomRegular returns a random d-regular simple connected graph on n
// nodes using the Steger–Wormald pairing method: random stub pairs are
// accepted unless they form a loop or a duplicate edge, and the whole
// construction restarts only in the rare event the remaining stubs get
// stuck. n·d must be even and d < n.
func RandomRegular(n, d int, r *rand.Rand) *Graph {
	if n*d%2 != 0 {
		panic("graph: random regular needs n*d even")
	}
	if d >= n {
		panic("graph: random regular needs d < n")
	}
	for {
		g, ok := tryRandomRegular(n, d, r)
		if ok && g.IsConnected() {
			return g
		}
	}
}

func tryRandomRegular(n, d int, r *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	edges := make([]Edge, 0, n*d/2)
	// row[u*d:u*d+deg[u]] lists u's neighbors so far; a node keeps d
	// stubs, so its row never outgrows d and a duplicate check scans at
	// most d entries.
	row, deg := make([]int32, n*d), make([]int32, n)
	for len(stubs) > 0 {
		accepted := false
		// A valid pair exists among the remaining stubs almost always;
		// give up (and restart the whole construction) after enough
		// consecutive rejections.
		for attempt := 0; attempt < 50+n*d; attempt++ {
			i := r.IntN(len(stubs))
			j := r.IntN(len(stubs))
			if i == j {
				continue
			}
			u, v := stubs[i], stubs[j]
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if slices.Contains(row[u*d:u*d+int(deg[u])], int32(v)) {
				continue
			}
			row[u*d+int(deg[u])], row[v*d+int(deg[v])] = int32(v), int32(u)
			deg[u]++
			deg[v]++
			edges = append(edges, Edge{U: u, V: v, W: 1})
			// Remove both stubs (larger index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			accepted = true
			break
		}
		if !accepted {
			return nil, false
		}
	}
	return FromEdges(n, edges), true
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// node connects to its k nearest neighbors on each side, with each edge
// rewired to a uniform random endpoint with probability pRewire
// (duplicate and self edges skip rewiring). Edge IDs follow the lattice
// order, so the graph depends on r's stream alone.
func WattsStrogatz(n, k int, pRewire float64, r *rand.Rand) *Graph {
	if k < 1 || 2*k >= n {
		panic("graph: watts-strogatz needs 1 <= k < n/2")
	}
	type pair struct{ u, v int }
	edges := make([]pair, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			edges = append(edges, pair{v, (v + j) % n})
		}
	}
	present := make(map[pair]bool, len(edges))
	norm := func(p pair) pair {
		if p.u > p.v {
			p.u, p.v = p.v, p.u
		}
		return p
	}
	for _, e := range edges {
		present[norm(e)] = true
	}
	for i, e := range edges {
		if r.Float64() >= pRewire {
			continue
		}
		w := r.IntN(n)
		ne := norm(pair{e.u, w})
		if w == e.u || present[ne] {
			continue
		}
		delete(present, norm(e))
		present[ne] = true
		edges[i] = pair{e.u, w}
	}
	// Every rewire swaps its slot's pair for one not yet present, so the
	// slots hold exactly the surviving edges, each once.
	return Build(n, func(add func(u, v int, w float64)) {
		for _, e := range edges {
			e = norm(e)
			add(e.u, e.v, 1)
		}
	})
}

// Margulis returns the Margulis–Gabber–Galil expander on the m×m torus
// of integers: node (x, y) is adjacent to (x±2y, y), (x±(2y+1), y),
// (x, y±2x) and (x, y±(2x+1)), all mod m. The construction is a
// celebrated explicit constant-degree expander; collapsing the multigraph
// to a simple graph leaves degrees ≤ 8 and preserves expansion up to
// constants. m must be at least 2.
func Margulis(m int) *Graph {
	if m < 2 {
		panic("graph: margulis needs m >= 2")
	}
	n := m * m
	var edges []Edge
	id := func(x, y int) int { return ((x%m+m)%m)*m + (y%m+m)%m }
	seen := make(map[[2]int]bool, 4*n)
	addOnce := func(u, v int) {
		if u == v {
			return
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			u := id(x, y)
			addOnce(u, id(x+2*y, y))
			addOnce(u, id(x-2*y, y))
			addOnce(u, id(x+2*y+1, y))
			addOnce(u, id(x-2*y-1, y))
			addOnce(u, id(x, y+2*x))
			addOnce(u, id(x, y-2*x))
			addOnce(u, id(x, y+2*x+1))
			addOnce(u, id(x, y-2*x-1))
		}
	}
	return FromEdges(n, edges)
}

// Dumbbell returns two random d-regular expanders of size k connected by
// exactly `bridges` random cross edges. With few bridges it has small
// expansion while both halves mix fast internally.
func Dumbbell(k, d, bridges int, r *rand.Rand) *Graph {
	left := RandomRegular(k, d, r)
	right := RandomRegular(k, d, r)
	edges := slices.Clone(left.Edges())
	for _, e := range right.Edges() {
		edges = append(edges, Edge{U: k + e.U, V: k + e.V, W: 1})
	}
	used := make(map[[2]int]bool, bridges)
	for len(used) < bridges {
		u, v := r.IntN(k), k+r.IntN(k)
		key := [2]int{u, v}
		if used[key] {
			continue
		}
		used[key] = true
		edges = append(edges, Edge{U: u, V: v, W: 1})
	}
	return FromEdges(2*k, edges)
}
