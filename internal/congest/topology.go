package congest

// The CSR (compressed sparse row) topology: the simulator's read-only
// view of the graph, flattened into a handful of int32 arrays at
// NewNetwork so the per-round delivery scan touches contiguous memory
// and never chases per-node slice headers or map buckets.
//
// Layout: ports of node v occupy the half-open range
// [start[v], start[v+1]) of the flat arrays; entry start[v]+p describes
// port p of v in the same order as graph.Neighbors(v):
//
//	to[i]   — the neighbor across the port
//	edge[i] — the graph edge ID behind the port
//	peer[i] — the absolute index, in these same arrays and in the
//	          outbox arena, of the port AT THE NEIGHBOR leading back to
//	          v (start[to[i]] + that port), so the receiver-driven
//	          delivery scan finds the sender's outbox slot with one
//	          int32 load and reads it with one arena load
//
// portOf(v, u) — the inverse mapping the old implementation kept as
// []map[int]int — is answered by binary search over a per-node
// neighbor-sorted permutation (sortedTo/sortedPort), costing O(log deg)
// with zero per-node allocations. The property suite asserts it agrees
// with a map-built reference on random graphs.
//
// int32 is safe here: NewNetwork rejects graphs whose node count or
// directed-port count exceeds int32 range (the simulator's arenas would
// exceed addressable memory long before).

import (
	"fmt"
	"math"
	"sort"

	"almostmix/internal/graph"
)

// topology is the flattened adjacency, port and peer-slot table.
type topology struct {
	n     int
	start []int32 // len n+1: CSR offsets
	to    []int32 // len 2m: neighbor across each port
	edge  []int32 // len 2m: edge ID behind each port
	peer  []int32 // len 2m: absolute slot of the neighbor's port leading back

	// Per-node neighbor-sorted permutation for portOf lookups.
	sortedTo   []int32 // len 2m: neighbor IDs, ascending within each node
	sortedPort []int32 // len 2m: port of the matching sortedTo entry

	// edgeV[e] is the V endpoint of edge e, for directed-slot computation
	// (slot = 2e, +1 when the receiver is the V endpoint).
	edgeV []int32
}

// newTopology flattens g. Panics if the graph exceeds int32 addressing.
func newTopology(g *graph.Graph) *topology {
	n, m := g.N(), g.M()
	if int64(n) > math.MaxInt32 || 2*int64(m) > math.MaxInt32 {
		panic(fmt.Sprintf("congest: graph too large for int32 topology (n=%d, m=%d)", n, m))
	}
	t := &topology{
		n:          n,
		start:      make([]int32, n+1),
		to:         make([]int32, 2*m),
		edge:       make([]int32, 2*m),
		peer:       make([]int32, 2*m),
		sortedTo:   make([]int32, 2*m),
		sortedPort: make([]int32, 2*m),
		edgeV:      make([]int32, m),
	}
	for v := 0; v < n; v++ {
		t.start[v+1] = t.start[v] + int32(g.Degree(v))
	}
	// One pass records, per edge, the port it occupies at each endpoint;
	// a second pass derives peer from those without any map.
	portAtU := make([]int32, m)
	portAtV := make([]int32, m)
	for v := 0; v < n; v++ {
		base := t.start[v]
		for p, h := range g.Neighbors(v) {
			i := base + int32(p)
			t.to[i] = int32(h.To)
			t.edge[i] = int32(h.EdgeID)
			if g.Edge(h.EdgeID).U == v {
				portAtU[h.EdgeID] = int32(p)
			} else {
				portAtV[h.EdgeID] = int32(p)
			}
		}
	}
	for e := 0; e < m; e++ {
		t.edgeV[e] = int32(g.Edge(e).V)
	}
	for v := 0; v < n; v++ {
		lo, hi := t.start[v], t.start[v+1]
		for i := lo; i < hi; i++ {
			e := t.edge[i]
			if int(t.edgeV[e]) == v {
				t.peer[i] = t.start[t.to[i]] + portAtU[e] // v is the V endpoint; sender port is at U
			} else {
				t.peer[i] = t.start[t.to[i]] + portAtV[e]
			}
			t.sortedTo[i] = t.to[i]
			t.sortedPort[i] = i - lo
		}
		s := portSorter{to: t.sortedTo[lo:hi], port: t.sortedPort[lo:hi]}
		sort.Sort(s)
	}
	return t
}

// portSorter sorts a node's (neighbor, port) pairs by neighbor ID.
// Neighbor IDs are distinct (simple graphs), so the order is total.
type portSorter struct{ to, port []int32 }

func (s portSorter) Len() int           { return len(s.to) }
func (s portSorter) Less(i, j int) bool { return s.to[i] < s.to[j] }
func (s portSorter) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.port[i], s.port[j] = s.port[j], s.port[i]
}

// degree returns the number of ports of node v.
func (t *topology) degree(v int) int { return int(t.start[v+1] - t.start[v]) }

// portOf returns the port index at v of the edge to neighbor u, or -1 if
// no such edge exists. O(log deg(v)), allocation-free.
func (t *topology) portOf(v, u int) int {
	lo, hi := t.start[v], t.start[v+1]
	target := int32(u)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.sortedTo[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.start[v+1] && t.sortedTo[lo] == target {
		return int(t.sortedPort[lo])
	}
	return -1
}

// slotOf returns the directed fault/probe slot of the delivery arriving
// at receiver u over the port-i entry: 2·edge, +1 when u is the edge's V
// endpoint.
func (t *topology) slotOf(i int32, u int) int {
	e := t.edge[i]
	slot := 2 * int(e)
	if int(t.edgeV[e]) == u {
		slot++
	}
	return slot
}
