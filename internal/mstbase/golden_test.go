package mstbase

// Golden fingerprints of the charged-cost baselines: for a fixed fixture
// set, every accounting field of GHS and KP and the sorted edge set are
// pinned in testdata/golden/. The fixtures cover the shapes the round
// formulas react to (expander, ring, lollipop, barbell, star), ties (unit
// weights, duplicate weights, parallel edges) and the degenerate sizes
// n ∈ {1, 2}. The edge set is pinned sorted, so the pin holds whatever
// order Edges comes out in.
//
// Regenerate with `go test ./internal/mstbase -run Golden -update` ONLY
// when the baselines' cost model is deliberately changed.

import (
	"bytes"
	"fmt"
	"testing"

	"almostmix/internal/golden"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

type baselineFixture struct {
	name string
	g    *graph.Graph
}

// baselineFixtures builds the pinned graphs; every call returns the same
// graphs with the same weights.
func baselineFixtures() []baselineFixture {
	r := rngutil.NewRand(23)
	distinct := func(g *graph.Graph) *graph.Graph {
		g.AssignDistinctRandomWeights(r)
		return g
	}
	dup := graph.RandomRegular(48, 6, r)
	for id := range dup.Edges() {
		dup.SetWeight(id, float64(1+r.IntN(3)))
	}
	// Every ring edge twice, at the same weight: the ties only the edge
	// ID breaks.
	multi := graph.Build(6, func(add func(u, v int, w float64)) {
		for v := 0; v < 6; v++ {
			add(v, (v+1)%6, float64(1+v%2))
			add(v, (v+1)%6, float64(1+v%2))
		}
	})
	return []baselineFixture{
		{"baseline-rr64d8", distinct(graph.RandomRegular(64, 8, r))},
		{"baseline-ring32", distinct(graph.Ring(32))},
		{"baseline-lollipop10x10", distinct(graph.Lollipop(10, 10))},
		{"baseline-barbell8x4", distinct(graph.Barbell(8, 4))},
		{"baseline-star15", distinct(graph.Star(15))},
		{"baseline-grid5x6-unit", graph.Grid(5, 6)},
		{"baseline-rr48d6-dup", dup},
		{"baseline-ring6-parallel", multi},
		{"baseline-n1", graph.FromEdges(1, nil)},
		{"baseline-n2", graph.Path(2)},
	}
}

func describeBaseline(out *bytes.Buffer, name string, res *Result) {
	fmt.Fprintf(out, "%s rounds=%d iterations=%d phase1=%d phase2=%d weight=%v edges=%v\n",
		name, res.Rounds, res.Iterations, res.Phase1Rounds, res.Phase2Rounds, res.Weight, sortedCopy(res.Edges))
}

func TestGoldenBaselines(t *testing.T) {
	for _, fx := range baselineFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			out := new(bytes.Buffer)
			ghs, err := GHS(fx.g)
			if err != nil {
				t.Fatal(err)
			}
			describeBaseline(out, "GHS", ghs)
			kp, err := KP(fx.g)
			if err != nil {
				t.Fatal(err)
			}
			describeBaseline(out, "KP", kp)
			golden.Check(t, fx.name, out.Bytes())
		})
	}
}
