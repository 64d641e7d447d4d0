package graph

// Tests for the streaming power-law generator (E18 input): it must emit
// deterministically (identical graphs from identical seeds — Build itself
// panics if the two passes disagree), stay a simple graph, and construct
// in O(1) allocations.

import (
	"testing"
)

func edgePairs(g *Graph) map[[2]int]bool {
	pairs := make(map[[2]int]bool, g.M())
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if pairs[key] {
			return nil // duplicate
		}
		pairs[key] = true
	}
	return pairs
}

func TestChungLuValid(t *testing.T) {
	const n, avg = 512, 6.0
	g := ChungLu(n, 2.5, avg, 42)
	if err := g.Validate(); err != nil {
		t.Fatalf("ChungLu invalid: %v", err)
	}
	if edgePairs(g) == nil {
		t.Fatal("ChungLu emitted a duplicate edge")
	}
	mean := 2 * float64(g.M()) / n
	if mean < avg/4 || mean > 2*avg {
		t.Fatalf("ChungLu mean degree %.2f far from target %.1f", mean, avg)
	}
	// Power-law shape: the top-weight node should beat the mean by a lot.
	if g.MaxDegree() < 4*int(mean) {
		t.Fatalf("ChungLu max degree %d shows no heavy tail (mean %.2f)", g.MaxDegree(), mean)
	}
}

func TestChungLuDeterminism(t *testing.T) {
	a := ChungLu(256, 2.7, 5, 9)
	b := ChungLu(256, 2.7, 5, 9)
	if a.M() != b.M() {
		t.Fatalf("same seed: m=%d vs %d", a.M(), b.M())
	}
	for id := 0; id < a.M(); id++ {
		if a.Edge(id) != b.Edge(id) {
			t.Fatalf("same seed: edge %d differs: %+v vs %+v", id, a.Edge(id), b.Edge(id))
		}
	}
	c := ChungLu(256, 2.7, 5, 10)
	if c.M() == a.M() {
		same := true
		for id := 0; id < a.M(); id++ {
			if a.Edge(id) != c.Edge(id) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced the identical graph")
		}
	}
}

func TestConnectedChungLu(t *testing.T) {
	g, err := ConnectedChungLu(192, 2.5, 8, 1)
	if err != nil {
		t.Fatalf("ConnectedChungLu: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("ConnectedChungLu returned a disconnected graph")
	}
}

func TestChungLuAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		ChungLu(2048, 2.5, 4, 3)
	})
	// Build's fixed cost plus, per pass: one weight slice and one PCG
	// stream. Constant in n and m.
	if allocs > 24 {
		t.Fatalf("ChungLu costs %.0f allocs, want O(1) (<= 24)", allocs)
	}
}

func TestChungLuRejectsBadParams(t *testing.T) {
	mustPanic(t, "n too small", func() { ChungLu(1, 2.5, 4, 1) })
	mustPanic(t, "exponent <= 2", func() { ChungLu(16, 2, 4, 1) })
	mustPanic(t, "avgDeg <= 0", func() { ChungLu(16, 2.5, 0, 1) })
}
