package graph

// Property tests (testing/quick) for the structural invariants every
// graph must satisfy: the handshake lemma (Σ deg = 2m) and the CSR's
// port symmetry — the half-edge across port p of v leads to a neighbor
// whose reverse half-edge routes straight back to v over the same edge,
// on the opposite arc. The CONGEST engine's receiver-driven delivery, the
// fault layer's per-arc rolls and the walk engine's per-arc loads all
// read exactly these tables, so a violation here would corrupt them all.

import (
	"testing"
	"testing/quick"

	"almostmix/internal/rngutil"
)

// sampleGraph draws a generator and size from the seed.
func sampleGraph(seed uint64) *Graph {
	r := rngutil.NewRand(seed)
	n := int(seed%48) + 8
	switch seed % 5 {
	case 0:
		return RandomRegular(n-n%2, 4, r)
	case 1:
		g, err := ConnectedGnp(n, 0.2, r)
		if err != nil {
			return Ring(n)
		}
		return g
	case 2:
		return Lollipop(n/2+2, n/2+1)
	case 3:
		return Torus(int(seed%5)+3, int(seed/5%5)+3)
	default:
		return Hypercube(int(seed%4) + 2)
	}
}

func TestPropertyHandshakeLemma(t *testing.T) {
	f := func(seed uint64) bool {
		g := sampleGraph(seed)
		degSum := 0
		for v := 0; v < g.N(); v++ {
			degSum += g.Degree(v)
		}
		return degSum == 2*g.M() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sampleMultigraph draws a random edge list on up to 31 nodes where about
// a quarter of the edges repeat an earlier one, either way round.
func sampleMultigraph(seed uint64) (int, []Edge) {
	r := rngutil.NewRand(seed)
	n := 2 + r.IntN(30)
	edges := make([]Edge, r.IntN(120))
	for i := range edges {
		if i > 0 && r.IntN(4) == 0 {
			e := edges[r.IntN(i)]
			if r.IntN(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			edges[i] = e
			continue
		}
		u, v := r.IntN(n), r.IntN(n-1)
		if v >= u {
			v++
		}
		edges[i] = Edge{U: u, V: v, W: float64(r.IntN(5))}
	}
	return n, edges
}

// TestPropertyPortSymmetryRoundTrips checks the CSR of random multigraphs,
// parallel edges included, against a reference built with maps straight
// from the edge list: each node's range holds its incident edges in ID
// order, every half-edge's arc is its directed slot, Reverses pairs it
// with the half-edge crossing the same edge back, and Port finds the
// last port to each neighbor.
func TestPropertyPortSymmetryRoundTrips(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges := sampleMultigraph(seed)
		g := FromEdges(n, edges)
		// ports[v] lists v's (edge, neighbor) pairs in insertion order;
		// lastPort[v][u] is the last of them leading to u; at[arc] is
		// where the reference puts the half-edge with that arc.
		type ref struct{ edge, to int }
		ports := make([][]ref, n)
		lastPort := make([]map[int]int, n)
		at := make(map[int32]int32, 2*len(edges))
		for v := range lastPort {
			lastPort[v] = map[int]int{}
		}
		for id, e := range edges {
			ports[e.U] = append(ports[e.U], ref{id, e.V})
			ports[e.V] = append(ports[e.V], ref{id, e.U})
		}
		start, half := g.CSR()
		rev := g.Reverses()
		if g.N() != n || g.M() != len(edges) || len(half) != 2*len(edges) || len(rev) != len(half) {
			return false
		}
		for v := 0; v < n; v++ {
			if int(start[v+1]-start[v]) != len(ports[v]) || g.Degree(v) != len(ports[v]) {
				return false
			}
			for p, want := range ports[v] {
				h := half[int(start[v])+p]
				lastPort[v][want.to] = p
				arc := int32(2 * want.edge)
				if edges[want.edge].V == want.to {
					arc++
				}
				if h.EdgeID() != want.edge || int(h.To) != want.to || h.Arc != arc || g.Edge(want.edge) != edges[want.edge] {
					return false
				}
				at[arc] = start[v] + int32(p)
			}
		}
		for i, h := range half {
			back := half[rev[i]]
			if rev[i] != at[h.Arc^1] || back.Arc != h.Arc^1 || rev[rev[i]] != int32(i) {
				return false
			}
		}
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				want, ok := lastPort[v][u]
				if !ok {
					want = -1
				}
				if g.Port(v, u) != want || g.HasEdge(v, u) != ok {
					return false
				}
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPairHalfedges checks PairHalfedges on random multigraphs,
// parallel edges and isolated nodes included: every half-edge from v to
// u maps to start[v] + Port(v, u), and its twin to start[u] + Port(u, v).
func TestPropertyPairHalfedges(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges := sampleMultigraph(seed)
		n += int(seed % 3) // nodes no edge touches
		g := FromEdges(n, edges)
		start, half := g.CSR()
		canon, twin := g.PairHalfedges()
		if len(canon) != len(half) || len(twin) != len(half) {
			return false
		}
		for v := range n {
			for p, h := range g.Neighbors(v) {
				i := start[v] + int32(p)
				u := int(h.To)
				if canon[i] != start[v]+int32(g.Port(v, u)) || twin[i] != start[u]+int32(g.Port(u, v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
