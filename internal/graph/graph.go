// Package graph provides the undirected weighted graph representation used
// throughout the simulator, together with generators for the graph
// families that the experiments sweep over (expanders, rings, tori,
// hypercubes, Erdős–Rényi graphs, and lower-bound-style low-expansion
// graphs such as lollipops and barbells).
//
// Nodes are integers in [0, N). Edges carry a stable EdgeID so that
// distributed node programs can refer to "port" numbers, and an optional
// weight used by MST and min-cut algorithms.
//
// A graph's adjacency is the one CSR (compressed sparse row) table every
// layer reads — the CONGEST engine's ports, the walk engine's steps and
// the router's overlay hops: node v's half-edges are half[start[v]:
// start[v+1]], port p of v being the p-th, in ascending edge-ID order.
// Build is the only constructor and the topology is immutable once built;
// only edge weights change afterwards.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// Edge is an undirected edge between nodes U and V with weight W.
type Edge struct {
	U, V int
	W    float64
}

// Halfedge is the view of an edge from one endpoint: the neighbor it leads
// to and its arc, the directed slot of the hop over it. Arc is 2·EdgeID,
// plus 1 when the hop ends at the edge's V endpoint, so the 2m arcs of a
// graph number its directed edges densely, and Arc^1 is the same edge
// crossed the other way. The walk engine charges a crossing's load to its
// arc, the fault layer rolls a delivery's fate on it, and a receiver's own
// half-edge names the arriving delivery's arc as Arc^1.
type Halfedge struct {
	To, Arc int32
}

// EdgeID returns the identifier of the edge the half-edge belongs to.
func (h Halfedge) EdgeID() int { return int(h.Arc >> 1) }

// Graph is an undirected weighted graph without self-loops; the generators
// build simple graphs, Build also accepts parallel edges.
type Graph struct {
	n     int
	edges []Edge
	start []int32    // len n+1: node v's half-edges are half[start[v]:start[v+1]]
	half  []Halfedge // len 2m
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Build constructs a graph on n nodes by streaming the edge sequence
// twice through emit: a counting pass sizes the CSR exactly, then a
// filling pass writes each edge under the next EdgeID and appends its two
// half-edges to its endpoints' ranges. The stream is never materialized
// as an intermediate edge list, and the graph costs a handful of allocations
// whatever n — the construction path the million-node simulator arenas
// rely on.
//
// Self-loops and out-of-range endpoints are rejected with a panic, since
// all callers construct graphs programmatically and a violation is a bug.
// Parallel edges are accepted, each under its own EdgeID: the embedding
// overlays are multigraphs by design. So is a graph whose node or
// half-edge count exceeds int32 range, checked here once for every layer
// that indexes the CSR.
//
// emit must be deterministic: both passes must produce the identical
// edge sequence (Build panics when they disagree). A randomized generator
// draws its edges into a list once and hands it to FromEdges.
func Build(n int, emit func(add func(u, v int, w float64))) *Graph {
	if n < 0 || n >= math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d outside [0, 2^31-1)", n))
	}
	start := make([]int32, n+1)
	m := 0
	emit(func(u, v int, w float64) {
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if m++; m > math.MaxInt32/2 {
			panic(fmt.Sprintf("graph: more than %d edges overflow int32 arcs", math.MaxInt32/2))
		}
		start[u+1]++
		start[v+1]++
	})
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	g := &Graph{n: n, edges: make([]Edge, 0, m), start: start, half: make([]Halfedge, 2*m)}
	next := slices.Clone(start[:n]) // each node's fill cursor
	emit(func(u, v int, w float64) {
		id := len(g.edges)
		if id == m || next[u] == start[u+1] || next[v] == start[v+1] {
			panic("graph: Build emit is not deterministic: the fill pass overruns the counted edges")
		}
		g.edges = append(g.edges, Edge{U: u, V: v, W: w})
		arc := 2 * int32(id)
		g.half[next[u]] = Halfedge{To: int32(v), Arc: arc | 1}
		g.half[next[v]] = Halfedge{To: int32(u), Arc: arc}
		next[u]++
		next[v]++
	})
	if len(g.edges) != m {
		panic(fmt.Sprintf("graph: Build emit is not deterministic: counted %d edges, inserted %d", m, len(g.edges)))
	}
	return g
}

// FromEdges builds the graph on n nodes whose edge i is edges[i].
func FromEdges(n int, edges []Edge) *Graph {
	return Build(n, func(add func(u, v int, w float64)) {
		for _, e := range edges {
			add(e.U, e.V, e.W)
		}
	})
}

// CSR returns the adjacency table itself: node v's half-edges are
// half[start[v]:start[v+1]], so start[v]+p is the absolute index of port
// p of v. Both slices are shared with the graph and must not be modified.
func (g *Graph) CSR() (start []int32, half []Halfedge) { return g.start, g.half }

// Reverses returns, for every absolute half-edge index i of the CSR, the
// index of the half-edge crossing the same edge the other way. The slice
// is freshly allocated; the CONGEST engine keeps it as its delivery index.
func (g *Graph) Reverses() []int32 {
	rev := make([]int32, len(g.half))
	// An edge's half-edges sit at the fill cursors of its endpoints, as
	// Build put them: replaying the edge list in ID order pairs them up.
	next := slices.Clone(g.start[:g.n])
	for _, e := range g.edges {
		i, j := next[e.U], next[e.V]
		rev[i], rev[j] = j, i
		next[e.U]++
		next[e.V]++
	}
	return rev
}

// PairHalfedges keys every half-edge by its ordered node pair: for the
// half-edge at absolute CSR index i, from v to u, canon[i] is the pair's
// canonical half-edge start[v] + Port(v, u), the last of v's ports to u,
// and twin[i] is canon of the reverse pair (u, v). Parallel edges thus
// share one key per direction, and twin[canon[i]] == twin[i]. Both
// slices are freshly allocated, built in O(n + m) without a Port scan.
func (g *Graph) PairHalfedges() (canon, twin []int32) {
	buf := make([]int32, 2*len(g.half))
	canon, twin = buf[:len(g.half):len(g.half)], buf[len(g.half):]
	// last[u] is the stamp of v's last half-edge to u: written by a first
	// sweep over v's range before a second sweep reads it, so no entry
	// is ever read stale and the array is never cleared.
	last := make([]int32, g.n)
	for v := range g.n {
		nb := g.half[g.start[v]:g.start[v+1]]
		for p, h := range nb {
			last[h.To] = g.start[v] + int32(p)
		}
		for p, h := range nb {
			canon[g.start[v]+int32(p)] = last[h.To]
		}
	}
	// The two half-edges of an edge sit at its endpoints' fill cursors
	// (as in Reverses); last is reused as the cursors.
	copy(last, g.start[:g.n])
	for _, e := range g.edges {
		i, j := last[e.U], last[e.V]
		twin[i], twin[j] = canon[j], canon[i]
		last[e.U]++
		last[e.V]++
	}
	return canon, twin
}

// Port returns the port of v whose half-edge leads to u, or -1 when u is
// not a neighbor. Among parallel edges it is the last, the one with the
// largest EdgeID, so a lookup by node pair merges them (and the router's
// exact expansion of an overlay hop keeps the edge it has always taken).
// O(deg(v)).
func (g *Graph) Port(v, u int) int {
	nb := g.Neighbors(v)
	for p := len(nb) - 1; p >= 0; p-- {
		if int(nb[p].To) == u {
			return p
		}
	}
	return -1
}

// HasEdge reports whether an edge {u, v} exists. O(deg(u)).
func (g *Graph) HasEdge(u, v int) bool { return g.Port(u, v) >= 0 }

// Neighbors returns the half-edges incident to v, port by port. The
// returned slice must not be modified.
func (g *Graph) Neighbors(v int) []Halfedge { return g.half[g.start[v]:g.start[v+1]] }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.start[v+1] - g.start[v]) }

// MaxDegree returns the maximum degree Δ of the graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	return maxDeg
}

// MinDegree returns the minimum degree of the graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	minDeg := g.Degree(0)
	for v := 1; v < g.n; v++ {
		minDeg = min(minDeg, g.Degree(v))
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

// Clone returns a copy whose edge weights change independently of g's.
// The immutable CSR is shared.
func (g *Graph) Clone() *Graph {
	c := *g
	c.edges = slices.Clone(g.edges)
	return &c
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
		for _, h := range g.Neighbors(v) {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, int(h.To))
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
		for _, h := range g.Neighbors(v) {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, int(h.To))
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
		for _, h := range g.Neighbors(int(v)) {
			if parent[h.To] < 0 {
				parent[h.To], via[h.To] = v, h.Arc>>1
				queue = append(queue, h.To)
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
	if len(g.start) != g.n+1 || int(g.start[g.n]) != len(g.half) || len(g.half) != 2*len(g.edges) {
		return fmt.Errorf("CSR of %d offsets and %d half-edges for n=%d, m=%d", len(g.start), len(g.half), g.n, len(g.edges))
	}
	seen := make([]bool, len(g.half))
	for v := 0; v < g.n; v++ {
		if g.start[v] > g.start[v+1] {
			return fmt.Errorf("node %d: CSR range [%d, %d) inverted", v, g.start[v], g.start[v+1])
		}
		for _, h := range g.Neighbors(v) {
			if h.To < 0 || int(h.To) >= g.n {
				return fmt.Errorf("node %d: neighbor %d out of range", v, h.To)
			}
			id := h.EdgeID()
			if h.Arc < 0 || id >= len(g.edges) {
				return fmt.Errorf("node %d: arc %d out of range", v, h.Arc)
			}
			if seen[h.Arc] {
				return fmt.Errorf("node %d: arc %d listed twice", v, h.Arc)
			}
			seen[h.Arc] = true
			e := g.edges[id]
			from, to := e.U, e.V
			if h.Arc&1 == 0 {
				from, to = e.V, e.U
			}
			if from != v || to != int(h.To) {
				return fmt.Errorf("node %d: half-edge to %d over arc %d disagrees with edge %d=(%d,%d)", v, h.To, h.Arc, id, e.U, e.V)
			}
		}
	}
	return nil
}
