package graph

// Tests for the streaming construction path (Build) and the RingLattice
// scale-bench family: Build must be observationally identical to the
// New + AddEdge path (same edge IDs, same adjacency order), must reject
// the same invalid edges, must detect a nondeterministic emit, and must
// construct in O(1) allocations regardless of n.

import (
	"slices"
	"testing"
	"testing/quick"

	"almostmix/internal/rngutil"
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

func TestBuildMatchesAddEdge(t *testing.T) {
	want := New(5)
	emitFixture(func(u, v int, w float64) { want.AddEdge(u, v, w) })
	got := Build(5, emitFixture)

	if err := got.Validate(); err != nil {
		t.Fatalf("Build graph invalid: %v", err)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("Build: n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for id, e := range want.Edges() {
		if got.Edge(id) != e {
			t.Errorf("edge %d: got %+v, want %+v", id, got.Edge(id), e)
		}
	}
	for v := 0; v < want.N(); v++ {
		gh, wh := got.Neighbors(v), want.Neighbors(v)
		if len(gh) != len(wh) {
			t.Fatalf("node %d: degree %d, want %d", v, len(gh), len(wh))
		}
		// Port order is part of the contract: the simulator's port
		// numbering is the adjacency order, so Build must reproduce the
		// AddEdge insertion order exactly.
		for p := range wh {
			if gh[p] != wh[p] {
				t.Errorf("node %d port %d: got %+v, want %+v", v, p, gh[p], wh[p])
			}
		}
	}
}

// TestPropertyBuildMatchesAddEdge: Build, fed an edge list, equals New +
// AddEdge on the same list — every edge ID and weight and every node's
// adjacency order, parallel edges included. The embedding's overlays are
// built by Build, and their route rows and portals read that order.
func TestPropertyBuildMatchesAddEdge(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		n := 2 + r.IntN(30)
		edges := make([]Edge, r.IntN(120))
		for i := range edges {
			if i > 0 && r.IntN(4) == 0 { // a parallel edge, either way round
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
		want := New(n)
		for _, e := range edges {
			want.AddEdge(e.U, e.V, e.W)
		}
		got := Build(n, func(add func(u, v int, w float64)) {
			for _, e := range edges {
				add(e.U, e.V, e.W)
			}
		})
		if got.N() != n || !slices.Equal(got.Edges(), want.Edges()) {
			return false
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
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
// list, adjacency spine, one halfedge arena, one scratch degree slice),
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
