package graph

// Tests for the one construction path (Build) and the RingLattice
// scale-bench family: Build must lay out the CSR it documents (edge IDs
// in emission order, ports in edge-ID order), must reject invalid edges,
// must detect a nondeterministic emit, and must construct in O(1)
// allocations regardless of n.

import (
	"slices"
	"testing"
	"testing/quick"
)

// emitFixture is a small irregular edge sequence exercising uneven
// degrees and non-monotone emission order.
func emitFixture(add func(u, v int, w float64)) {
	add(0, 1, 1)
	add(3, 2, 5)
	add(0, 4, 2)
	add(2, 0, 3)
	add(1, 4, 7)
	add(0, 3, 4)
}

// TestBuildFixtureAdjacency pins the CSR Build lays out: edge IDs in
// emission order, each node's ports in ascending edge ID, and each
// half-edge's arc 2·EdgeID, +1 when it leads to the edge's V endpoint.
func TestBuildFixtureAdjacency(t *testing.T) {
	g := Build(5, emitFixture)
	if err := g.Validate(); err != nil {
		t.Fatalf("Build graph invalid: %v", err)
	}
	wantEdges := []Edge{{0, 1, 1}, {3, 2, 5}, {0, 4, 2}, {2, 0, 3}, {1, 4, 7}, {0, 3, 4}}
	if !slices.Equal(g.Edges(), wantEdges) {
		t.Fatalf("edges %v, want %v", g.Edges(), wantEdges)
	}
	want := [][]Halfedge{
		{{To: 1, Arc: 1}, {To: 4, Arc: 5}, {To: 2, Arc: 6}, {To: 3, Arc: 11}},
		{{To: 0, Arc: 0}, {To: 4, Arc: 9}},
		{{To: 3, Arc: 2}, {To: 0, Arc: 7}},
		{{To: 2, Arc: 3}, {To: 0, Arc: 10}},
		{{To: 0, Arc: 4}, {To: 1, Arc: 8}},
	}
	for v, wh := range want {
		if gh := g.Neighbors(v); !slices.Equal(gh, wh) {
			t.Errorf("node %d: ports %+v, want %+v", v, gh, wh)
		}
	}
}

// TestPropertyBuildMatchesAddEdge: Build, fed a random multigraph's edge
// list, equals the incremental reference where each add call appends
// the edge and one half-edge to each endpoint — every edge ID and weight
// and every node's adjacency order, parallel edges included. The
// embedding's overlays are built by Build, and their route rows and
// portals read that order.
func TestPropertyBuildMatchesAddEdge(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges := sampleMultigraph(seed)
		var wantEdges []Edge
		wantAdj := make([][]Halfedge, n)
		for _, e := range edges {
			arc := 2 * int32(len(wantEdges))
			wantEdges = append(wantEdges, e)
			wantAdj[e.U] = append(wantAdj[e.U], Halfedge{To: int32(e.V), Arc: arc | 1})
			wantAdj[e.V] = append(wantAdj[e.V], Halfedge{To: int32(e.U), Arc: arc})
		}
		got := Build(n, func(add func(u, v int, w float64)) {
			for _, e := range edges {
				add(e.U, e.V, e.W)
			}
		})
		if got.N() != n || !slices.Equal(got.Edges(), wantEdges) {
			return false
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(got.Neighbors(v), wantAdj[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmptyAndEdgeless(t *testing.T) {
	g := Build(0, func(add func(u, v int, w float64)) {})
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty Build: n=%d m=%d", g.N(), g.M())
	}
	g = Build(4, func(add func(u, v int, w float64)) {})
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("edgeless Build: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("edgeless Build invalid: %v", err)
	}
	if g.IsConnected() {
		t.Fatal("4-node edgeless graph should not be connected")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestBuildRejectsInvalidEdges(t *testing.T) {
	mustPanic(t, "self-loop", func() {
		Build(3, func(add func(u, v int, w float64)) { add(1, 1, 1) })
	})
	mustPanic(t, "out-of-range", func() {
		Build(3, func(add func(u, v int, w float64)) { add(0, 3, 1) })
	})
	mustPanic(t, "negative n", func() {
		Build(-1, func(add func(u, v int, w float64)) {})
	})
}

func TestBuildDetectsNondeterministicEmit(t *testing.T) {
	calls := 0
	mustPanic(t, "shrinking emit", func() {
		Build(4, func(add func(u, v int, w float64)) {
			calls++
			add(0, 1, 1)
			if calls == 1 { // second (fill) pass emits fewer edges
				add(1, 2, 1)
			}
		})
	})
}

// TestBuildAllocs pins the streaming construction cost: the adjacency of
// an n-node graph must land in O(1) allocations (graph struct, edge
// list, CSR offsets, one half-edge arena, one scratch cursor slice),
// not O(n) slice growths. The generous bound still fails instantly if
// Build regresses to per-node or amortized-growth allocation.
func TestBuildAllocs(t *testing.T) {
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		RingLattice(n, 4)
	})
	if allocs > 10 {
		t.Fatalf("Build(RingLattice(%d,4)) costs %.0f allocs, want O(1) (<= 10)", n, allocs)
	}
}

func TestRingLattice(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{8, 1}, {9, 2}, {64, 4}, {101, 3}} {
		g := RingLattice(tc.n, tc.k)
		if err := g.Validate(); err != nil {
			t.Fatalf("RingLattice(%d,%d) invalid: %v", tc.n, tc.k, err)
		}
		if !g.IsConnected() {
			t.Fatalf("RingLattice(%d,%d) disconnected", tc.n, tc.k)
		}
		if g.M() != tc.n*tc.k {
			t.Fatalf("RingLattice(%d,%d): m=%d, want %d", tc.n, tc.k, g.M(), tc.n*tc.k)
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != 2*tc.k {
				t.Fatalf("RingLattice(%d,%d): deg(%d)=%d, want %d", tc.n, tc.k, v, g.Degree(v), 2*tc.k)
			}
		}
	}
	mustPanic(t, "RingLattice k=0", func() { RingLattice(8, 0) })
	mustPanic(t, "RingLattice 2k>=n", func() { RingLattice(8, 4) })
}
