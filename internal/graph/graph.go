// Package graph provides the undirected weighted graph representation used
// throughout the simulator, together with generators for the graph
// families that the experiments sweep over (expanders, rings, tori,
// hypercubes, Erdős–Rényi graphs, and lower-bound-style low-expansion
// graphs such as lollipops and barbells).
//
// Nodes are integers in [0, N). Edges carry a stable EdgeID so that
// distributed node programs can refer to "port" numbers, and an optional
// weight used by MST and min-cut algorithms.
package graph

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
)

// Edge is an undirected edge between nodes U and V with weight W.
type Edge struct {
	U, V int
	W    float64
}

// Halfedge is the view of an edge from one endpoint: the neighbor it leads
// to and the identifier of the underlying edge.
type Halfedge struct {
	To     int
	EdgeID int
}

// Graph is an undirected weighted graph without self-loops; the generators
// build simple graphs, AddEdge also accepts parallel edges.
//
// The zero value is an empty graph; use New or a generator to build one.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Halfedge
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:   n,
		adj: make([][]Halfedge, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// AddEdge inserts an undirected edge {u, v} with weight w and returns its
// EdgeID. Self-loops and out-of-range endpoints are rejected with a panic,
// since all callers construct graphs programmatically and a violation is
// a bug. Parallel edges are accepted, each under its own EdgeID: the
// embedding overlays are multigraphs by design.
func (g *Graph) AddEdge(u, v int, w float64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Halfedge{To: v, EdgeID: id})
	g.adj[v] = append(g.adj[v], Halfedge{To: u, EdgeID: id})
	return id
}

// Build constructs a graph on n nodes by streaming the edge sequence
// twice through emit: a counting pass sizes the edge list and one flat
// halfedge arena exactly, then a filling pass inserts the edges. The
// stream is never materialized as an intermediate edge list, and the
// adjacency costs three allocations total instead of O(n) slice growths
// — the construction path the million-node simulator arenas rely on.
//
// emit must be deterministic: both passes must produce the identical
// edge sequence (Build panics when the counts disagree). Generators
// that consume randomness should draw the stream into a buffer once and
// replay it, or keep using New + AddEdge.
func Build(n int, emit func(add func(u, v int, w float64))) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	deg := make([]int, n)
	m := 0
	emit(func(u, v int, w float64) {
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		deg[u]++
		deg[v]++
		m++
	})
	g := &Graph{
		n:     n,
		edges: make([]Edge, 0, m),
		adj:   make([][]Halfedge, n),
	}
	arena := make([]Halfedge, 2*m)
	off := 0
	for v := 0; v < n; v++ {
		// Full-slice expressions pin each node's capacity to its counted
		// degree, so a miscounting emit reallocates out of the arena
		// instead of corrupting a neighbor's range.
		g.adj[v] = arena[off : off : off+deg[v]]
		off += deg[v]
	}
	emit(func(u, v int, w float64) { g.AddEdge(u, v, w) })
	if len(g.edges) != m {
		panic(fmt.Sprintf("graph: Build emit is not deterministic: counted %d edges, inserted %d", m, len(g.edges)))
	}
	return g
}

// HasEdge reports whether an edge {u, v} exists. O(deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the halfedges incident to v. The returned slice must
// not be modified.
func (g *Graph) Neighbors(v int) []Halfedge { return g.adj[v] }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree Δ of the graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// MinDegree returns the minimum degree of the graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	minDeg := len(g.adj[0])
	for v := 1; v < g.n; v++ {
		if d := len(g.adj[v]); d < minDeg {
			minDeg = d
		}
	}
	return minDeg
}

// SetWeight sets the weight of edge id.
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

// Other returns the endpoint of edge id that is not v.
func (g *Graph) Other(id, v int) int {
	e := g.edges[id]
	if e.U == v {
		return e.V
	}
	return e.U
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v := range g.adj {
		c.adj[v] = make([]Halfedge, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	return c
}

// ErrDisconnected is returned by operations requiring a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.bfsOrder(0)) == g.n
}

// bfsOrder returns the nodes reachable from src in BFS order.
func (g *Graph) bfsOrder(src int) []int {
	seen := make([]bool, g.n)
	order := make([]int, 0, g.n)
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	return order
}

// BFSDist returns the hop distances from src to every node (-1 if
// unreachable).
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// BFSTree returns the breadth-first tree from src: parent[v] is the node v
// was first reached from and via[v] the edge it was reached over, scanning
// adjacency lists in Neighbors order — the tree is a deterministic
// function of the graph. parent[src] = src and via[src] = -1; both are -1
// at a node src does not reach.
func (g *Graph) BFSTree(src int) (parent, via []int32) {
	parent, via = make([]int32, g.n), make([]int32, g.n)
	for i := range parent {
		parent[i], via[i] = -1, -1
	}
	parent[src] = int32(src)
	queue := make([]int32, 1, g.n)
	queue[0] = int32(src)
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, h := range g.adj[v] {
			if parent[h.To] < 0 {
				parent[h.To], via[h.To] = v, int32(h.EdgeID)
				queue = append(queue, int32(h.To))
			}
		}
	}
	return parent, via
}

// PathTo returns the tree path from the source of a BFSTree parent table
// to dst as a node sequence, source first, or nil when dst was not reached.
func PathTo(parent []int32, dst int) []int32 {
	if parent[dst] < 0 {
		return nil
	}
	path := []int32{int32(dst)}
	for v := int32(dst); parent[v] != v; {
		v = parent[v]
		path = append(path, v)
	}
	slices.Reverse(path)
	return path
}

// Diameter returns the hop diameter of the graph by running a BFS from
// every node. It returns -1 for disconnected graphs. O(n·m).
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		dist := g.BFSDist(v)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Components returns the connected components as slices of nodes.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		comp := g.bfsOrder(v)
		for _, u := range comp {
			seen[u] = true
		}
		comps = append(comps, comp)
	}
	return comps
}

// CutSize returns e(S, V\S), the number of edges crossing the node set S.
func (g *Graph) CutSize(inS []bool) int {
	cut := 0
	for _, e := range g.edges {
		if inS[e.U] != inS[e.V] {
			cut++
		}
	}
	return cut
}

// AssignDistinctRandomWeights assigns random weights that are distinct
// with certainty: a random permutation rank plus small jitter. Distinct
// weights make the MST unique, which both the paper's Borůvka variant and
// the verification against Kruskal rely on.
func (g *Graph) AssignDistinctRandomWeights(r *rand.Rand) {
	perm := r.Perm(len(g.edges))
	for i := range g.edges {
		g.edges[i].W = float64(perm[i] + 1)
	}
}

// TotalWeight returns the sum of the weights of the given edge IDs.
func (g *Graph) TotalWeight(ids []int) float64 {
	total := 0.0
	for _, id := range ids {
		total += g.edges[id].W
	}
	return total
}

// Validate checks internal consistency; it returns an error describing the
// first violation found. Intended for tests.
func (g *Graph) Validate() error {
	degSum := 0
	for v := range g.adj {
		degSum += len(g.adj[v])
		for _, h := range g.adj[v] {
			if h.To < 0 || h.To >= g.n {
				return fmt.Errorf("node %d: neighbor %d out of range", v, h.To)
			}
			if h.EdgeID < 0 || h.EdgeID >= len(g.edges) {
				return fmt.Errorf("node %d: edge id %d out of range", v, h.EdgeID)
			}
			e := g.edges[h.EdgeID]
			if e.U != v && e.V != v {
				return fmt.Errorf("node %d references edge %d=(%d,%d) not incident to it", v, h.EdgeID, e.U, e.V)
			}
			if g.Other(h.EdgeID, v) != h.To {
				return fmt.Errorf("node %d: halfedge to %d disagrees with edge %d", v, h.To, h.EdgeID)
			}
		}
	}
	if degSum != 2*len(g.edges) {
		return fmt.Errorf("degree sum %d != 2m = %d", degSum, 2*len(g.edges))
	}
	return nil
}
