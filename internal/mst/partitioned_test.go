package mst

import (
	"sort"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
)

func buildTier(t *testing.T, g *graph.Graph, dp decomp.Params) *embed.Partitioned {
	t.Helper()
	dec, err := decomp.Decompose(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

// checkSpanningTree verifies res is a spanning tree of g with Kruskal's
// weight (with distinct weights, Kruskal's exact edge set).
func checkSpanningTree(t *testing.T, g *graph.Graph, res *PartitionedResult) {
	t.Helper()
	if len(res.Edges) != g.N()-1 {
		t.Fatalf("%d edges for %d nodes", len(res.Edges), g.N())
	}
	uf := make([]int, g.N())
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for _, id := range res.Edges {
		e := g.Edge(id)
		ru, rv := find(int(e.U)), find(int(e.V))
		if ru == rv {
			t.Fatalf("edge %d closes a cycle", id)
		}
		uf[ru] = rv
	}
	wantEdges, wantWeight := mstbase.Kruskal(g)
	if res.Weight != wantWeight {
		t.Fatalf("weight %g, Kruskal %g", res.Weight, wantWeight)
	}
	_ = wantEdges
	if got := res.Costs.Total(cost.Root); got != res.Rounds {
		t.Fatalf("ledger root totals %d, result says %d", got, res.Rounds)
	}
	if res.Rounds != res.ClusterRounds+res.StitchRounds {
		t.Fatalf("Rounds %d != ClusterRounds %d + StitchRounds %d",
			res.Rounds, res.ClusterRounds, res.StitchRounds)
	}
	if err := res.Costs.Err(); err != nil {
		t.Fatalf("ledger violations: %v", err)
	}
}

func TestRunPartitionedWorstCaseGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"lollipop": graph.Lollipop(32, 16),
		"barbell":  graph.Barbell(16, 8),
		"chunglu":  mustConnected(t, 96),
	}
	for name, g := range cases {
		g.AssignDistinctRandomWeights(rngutil.NewRand(21))
		pe := buildTier(t, g, decomp.Params{})
		res, err := RunPartitioned(pe, rngutil.NewSource(4))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSpanningTree(t, g, res)
		wantEdges, _ := mstbase.Kruskal(g)
		sort.Ints(wantEdges)
		if len(wantEdges) != len(res.Edges) {
			t.Fatalf("%s: %d edges vs Kruskal's %d", name, len(res.Edges), len(wantEdges))
		}
		for i, id := range wantEdges {
			if res.Edges[i] != id {
				t.Fatalf("%s: edge set differs from Kruskal at %d: %d vs %d", name, i, res.Edges[i], id)
			}
		}
	}
}

func mustConnected(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.ConnectedChungLu(n, 2.5, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunPartitionedExpanderMatchesDirect(t *testing.T) {
	g := graph.RandomRegular(64, 8, rngutil.NewRand(9))
	g.AssignDistinctRandomWeights(rngutil.NewRand(10))
	pe := buildTier(t, g, decomp.Params{})
	if len(pe.Clusters) != 1 {
		t.Fatalf("expander split into %d clusters", len(pe.Clusters))
	}
	res, err := RunPartitioned(pe, rngutil.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanningTree(t, g, res)
	direct, err := Run(pe.Clusters[0].H, rngutil.NewSource(4).Child("cluster", 0))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Weight != res.Weight {
		t.Fatalf("stitched weight %g != direct hierarchical MST weight %g", res.Weight, direct.Weight)
	}
}

func TestRunPartitionedDirectTiers(t *testing.T) {
	// A 4-path split into two 2-node direct tiers still yields the MST
	// (which is the whole path).
	g := graph.Path(4)
	g.AssignDistinctRandomWeights(rngutil.NewRand(2))
	pe := buildTier(t, g, decomp.Params{Phi: 0.5, Eps: 0.9, MinSize: 2})
	res, err := RunPartitioned(pe, rngutil.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanningTree(t, g, res)
}

func TestRunPartitionedRejectsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPartitioned(pe, rngutil.NewSource(1)); err == nil {
		t.Fatal("RunPartitioned accepted a disconnected base graph")
	}
}

func TestRunPartitionedDeterminism(t *testing.T) {
	g := graph.Barbell(16, 8)
	g.AssignDistinctRandomWeights(rngutil.NewRand(7))
	pe := buildTier(t, g, decomp.Params{})
	a, err := RunPartitioned(pe, rngutil.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPartitioned(pe, rngutil.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Weight != b.Weight || len(a.Edges) != len(b.Edges) {
		t.Fatalf("identical runs differ: %+v vs %+v", a, b)
	}
}
