package spectral

// Tests for the disconnected-graph contract: the decomposition recursion
// probes induced subgraphs that fall apart into components, and the
// spectral quantities must return their documented sentinels there
// instead of garbage (λ₂ = 1 makes the mixing-time formula blow up, and
// zero-volume components break the conductance enumeration's
// admissibility filter).

import (
	"testing"

	"almostmix/internal/graph"
)

// twoTriangles returns two disjoint triangles plus one isolated node.
func twoTriangles() *graph.Graph {
	g := graph.FromEdges(7, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1}})
	return g
}

func TestMixingTimeEstimateDisconnected(t *testing.T) {
	g := twoTriangles()
	for _, kind := range []WalkKind{Lazy, Regular} {
		if got := MixingTimeEstimate(g, kind); got != TimeUnmixed {
			t.Errorf("MixingTimeEstimate(two components, %v) = %d, want TimeUnmixed (%d)", kind, got, TimeUnmixed)
		}
	}
	// Trivial graphs are already mixed.
	if got := MixingTimeEstimate(graph.FromEdges(1, nil), Lazy); got != 0 {
		t.Errorf("MixingTimeEstimate(single node) = %d, want 0", got)
	}
	// Control: a connected graph still yields a positive finite estimate.
	if got := MixingTimeEstimate(graph.Complete(8), Lazy); got <= 0 {
		t.Errorf("MixingTimeEstimate(K8) = %d, want > 0", got)
	}
}

func TestConductanceDisconnected(t *testing.T) {
	g := twoTriangles()
	if got := Conductance(g); got != 0 {
		t.Errorf("Conductance(two components) = %g, want 0", got)
	}
	if got := ConductanceSweep(g); got != 0 {
		t.Errorf("ConductanceSweep(two components) = %g, want 0", got)
	}
	if phi, inS := ConductanceSweepCut(g); phi != 0 || inS != nil {
		t.Errorf("ConductanceSweepCut(two components) = (%g, %v), want (0, nil)", phi, inS)
	}
	if got := Conductance(graph.Complete(6)); got <= 0 {
		t.Errorf("Conductance(K6) = %g, want > 0", got)
	}
}

// TestConductanceSweepCutConsistent checks the returned cut realizes the
// returned value: φ = cut(S)/min(vol(S), vol(V\S))... the sweep's
// admissibility already restricts to vol(S) ≤ m, so φ = cut/vol(S).
func TestConductanceSweepCutConsistent(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Barbell(6, 2), graph.Lollipop(8, 4), graph.Ring(12)} {
		phi, inS := ConductanceSweepCut(g)
		if inS == nil {
			t.Fatalf("ConductanceSweepCut returned nil cut on connected graph")
		}
		size, vol := 0, 0
		for v, in := range inS {
			if in {
				size++
				vol += g.Degree(v)
			}
		}
		if size == 0 || size == g.N() {
			t.Fatalf("sweep cut side empty: size=%d of %d", size, g.N())
		}
		want := float64(g.CutSize(inS)) / float64(vol)
		if phi != want {
			t.Fatalf("sweep phi=%g but returned cut realizes %g", phi, want)
		}
		if sweep := ConductanceSweep(g); sweep != phi {
			t.Fatalf("ConductanceSweep=%g disagrees with ConductanceSweepCut=%g", sweep, phi)
		}
	}
}
