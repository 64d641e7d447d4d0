package cliquealgo

// Golden fingerprints of Borůvka-on-the-clique: for a fixed fixture set
// the clique rounds, the measured emulation cost, the weight and the
// chosen edge IDs in emission order (iteration by iteration, ascending
// edge ID within an iteration) are pinned in testdata/golden/. n = 1 has
// no hierarchy to emulate a clique round on, so the degenerate size here
// is n = 2.
//
// Regenerate with `go test ./internal/cliquealgo -run Golden -update`
// ONLY when the algorithm's contract is deliberately changed.

import (
	"bytes"
	"fmt"
	"testing"

	"almostmix/internal/embed"
	"almostmix/internal/golden"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func TestGoldenCliqueMST(t *testing.T) {
	r := rngutil.NewRand(31)
	distinct := func(g *graph.Graph) *graph.Graph {
		g.AssignDistinctRandomWeights(r)
		return g
	}
	dup := graph.RandomRegular(32, 6, r)
	for id := range dup.Edges() {
		dup.SetWeight(id, float64(1+r.IntN(3)))
	}
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{
		{"clique-mst-rr32d6", distinct(graph.RandomRegular(32, 6, r))},
		{"clique-mst-ring12", distinct(graph.Ring(12))},
		{"clique-mst-lollipop6x6", distinct(graph.Lollipop(6, 6))},
		{"clique-mst-barbell6x2", distinct(graph.Barbell(6, 2))},
		{"clique-mst-star12", distinct(graph.Star(12))},
		{"clique-mst-k8-unit", graph.Complete(8)},
		{"clique-mst-rr32d6-dup", dup},
		{"clique-mst-n2", graph.Path(2)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			h, err := embed.Build(fx.g, embed.DefaultParams(), rngutil.NewSource(32))
			if err != nil {
				t.Fatal(err)
			}
			res, err := MST(h, 33)
			if err != nil {
				t.Fatal(err)
			}
			out := new(bytes.Buffer)
			fmt.Fprintf(out, "cliqueRounds=%d emulatedRounds=%d perCliqueRound=%d weight=%v\nedges=%v\n",
				res.CliqueRounds, res.EmulatedRounds, res.PerCliqueRound, res.Weight, res.Edges)
			golden.Check(t, fx.name, out.Bytes())
		})
	}
}
