package mst

// Golden fingerprints of the MST layer: for a fixed scenario set the
// chosen edge IDs in emission order, every IterationStats, the round
// totals and the FNV-64 of the flattened ledger are pinned in
// testdata/golden/. The emission order pins the coin stream and the
// fragment order of every Borůvka iteration, the per-iteration StepRounds
// the routing instances underneath. A rework must reproduce the files
// byte for byte.
//
// Regenerate with `go test ./internal/mst -run Golden -update` ONLY when
// the MST contract itself is deliberately changed.

import (
	"bytes"
	"fmt"
	"testing"

	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/golden"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func describeRun(h *embed.Hierarchy, seed uint64) (*bytes.Buffer, error) {
	res, err := Run(h, rngutil.NewSource(seed))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	fmt.Fprintf(out, "edges=%v\n", res.Edges)
	for i, it := range res.Iterations {
		fmt.Fprintf(out, "iteration %02d %+v\n", i, it)
	}
	fmt.Fprintf(out, "weight=%v rounds=%d algorithm=%d maxTreeDepth=%d maxInDegRatio=%v ledger=%s\n",
		res.Weight, res.Rounds, res.AlgorithmRounds, res.MaxTreeDepth, res.MaxInDegRatio, golden.Ledger(res.Costs))
	return out, nil
}

func goldenShared() (*bytes.Buffer, error) {
	fx, err := shared()
	if err != nil {
		return nil, err
	}
	return describeRun(fx.h, 5)
}

// goldenDeeper runs on a three-level hierarchy (the shape of the route
// package's TestRouteOnDeeperHierarchy).
func goldenDeeper() (*bytes.Buffer, error) {
	r := rngutil.NewRand(25)
	g := graph.RandomRegular(96, 8, r)
	g.AssignDistinctRandomWeights(r)
	p := embed.DefaultParams()
	p.Beta = 3
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(26))
	if err != nil {
		return nil, err
	}
	return describeRun(h, 28)
}

func goldenMargulis() (*bytes.Buffer, error) {
	g := graph.Margulis(6)
	g.AssignDistinctRandomWeights(rngutil.NewRand(44))
	h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(45))
	if err != nil {
		return nil, err
	}
	return describeRun(h, 47)
}

// goldenBarbell runs the cross-cluster MST on Barbell(8,4): two hierarchy
// clusters, then the stitch phase.
func goldenBarbell() (*bytes.Buffer, error) {
	g := graph.Barbell(8, 4)
	g.AssignDistinctRandomWeights(rngutil.NewRand(7))
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		return nil, err
	}
	pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(11))
	if err != nil {
		return nil, err
	}
	res, err := RunPartitioned(pe, rngutil.NewSource(6))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	fmt.Fprintf(out, "edges=%v\n", res.Edges)
	fmt.Fprintf(out, "weight=%v rounds=%d cluster=%d stitch=%d stitchIterations=%d sparsified=%d ledger=%s\n",
		res.Weight, res.Rounds, res.ClusterRounds, res.StitchRounds, res.StitchIterations,
		res.SparsifiedEdges, golden.Ledger(res.Costs))
	return out, nil
}

func TestGoldenMST(t *testing.T) {
	for _, sc := range []struct {
		name  string
		slow  bool
		build func() (*bytes.Buffer, error)
	}{
		{"mst-rr64d6", false, goldenShared},
		{"mst-rr96d8-deeper", true, goldenDeeper},
		{"mst-margulis6", false, goldenMargulis},
		{"mst-partitioned-barbell8x4", false, goldenBarbell},
	} {
		t.Run(sc.name, func(t *testing.T) {
			if sc.slow && testing.Short() {
				t.Skip("skipping deep hierarchy build in -short mode")
			}
			got, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, sc.name, got.Bytes())
		})
	}
}
