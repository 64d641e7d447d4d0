package decomp

import (
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// checkPartition verifies the structural invariants every decomposition
// must satisfy: clusters partition the node set, each cluster's induced
// subgraph is connected with ascending node lists, ClusterOf agrees with
// the cluster lists, CrossEdges are exactly the inter-cluster edges and
// stay within the ε·m budget, and each cluster's boundary edges are all
// cross edges.
func checkPartition(t *testing.T, g *graph.Graph, dec *Decomposition) {
	t.Helper()
	seen := make([]int, g.N())
	for i := range seen {
		seen[i] = -1
	}
	for ci, c := range dec.Clusters {
		if c.Index != ci {
			t.Fatalf("cluster %d has Index %d", ci, c.Index)
		}
		if len(c.Nodes) == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		for i, v := range c.Nodes {
			if i > 0 && c.Nodes[i-1] >= v {
				t.Fatalf("cluster %d nodes not ascending: %v", ci, c.Nodes)
			}
			if seen[v] != -1 {
				t.Fatalf("node %d in clusters %d and %d", v, seen[v], ci)
			}
			seen[v] = ci
			if int(dec.ClusterOf[v]) != ci {
				t.Fatalf("ClusterOf[%d]=%d, want %d", v, dec.ClusterOf[v], ci)
			}
		}
		if !c.Sub.G.IsConnected() {
			t.Fatalf("cluster %d induced subgraph disconnected", ci)
		}
		for _, b := range c.Sub.Boundary() {
			if dec.ClusterOf[b.Inside] == dec.ClusterOf[b.Outside] {
				t.Fatalf("cluster %d boundary edge %d is intra-cluster", ci, b.EdgeID)
			}
		}
	}
	for v, ci := range seen {
		if ci == -1 {
			t.Fatalf("node %d in no cluster", v)
		}
	}
	cross := 0
	for _, e := range g.Edges() {
		if dec.ClusterOf[e.U] != dec.ClusterOf[e.V] {
			cross++
		}
	}
	if cross != len(dec.CrossEdges) {
		t.Fatalf("CrossEdges lists %d edges, graph has %d inter-cluster edges", len(dec.CrossEdges), cross)
	}
	if budget := int(dec.Params.Eps * float64(g.M())); cross > budget {
		t.Fatalf("%d cross edges exceed budget %d", cross, budget)
	}
	if err := dec.Costs.Err(); err != nil {
		t.Fatalf("ledger violations: %v", err)
	}
}

func TestDecomposeExpanderSingleCluster(t *testing.T) {
	g := graph.RandomRegular(64, 8, rngutil.NewRand(1))
	dec, err := Decompose(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if len(dec.Clusters) != 1 {
		t.Fatalf("expander split into %d clusters", len(dec.Clusters))
	}
	c := dec.Clusters[0]
	if c.Cert.Reason != Expander {
		t.Fatalf("reason = %v, want expander", c.Cert.Reason)
	}
	if c.Cert.PhiSweep < dec.Params.Phi {
		t.Fatalf("certificate phi %g below target %g", c.Cert.PhiSweep, dec.Params.Phi)
	}
	if c.Cert.MixingTime <= 0 {
		t.Fatalf("certificate mixing time %d", c.Cert.MixingTime)
	}
	if len(dec.CrossEdges) != 0 {
		t.Fatalf("single cluster but %d cross edges", len(dec.CrossEdges))
	}
}

func TestDecomposeLollipopSplitsBottleneck(t *testing.T) {
	g := graph.Lollipop(32, 16)
	dec, err := Decompose(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if len(dec.Clusters) < 2 {
		t.Fatalf("lollipop stayed one cluster")
	}
	// The clique must land in a single cluster: its internal conductance
	// is high and no sweep cut should cross it.
	cliqueCluster := dec.ClusterOf[0]
	for v := 1; v < 32; v++ {
		if dec.ClusterOf[v] != cliqueCluster {
			t.Fatalf("clique split: node %d in cluster %d, node 0 in %d", v, dec.ClusterOf[v], cliqueCluster)
		}
	}
	// Every cluster certificate is populated.
	for _, c := range dec.Clusters {
		if len(c.Nodes) >= 2 && c.Cert.PhiSweep <= 0 {
			t.Fatalf("cluster %d (n=%d) has empty certificate", c.Index, len(c.Nodes))
		}
		if c.Cert.MixingTime < 0 {
			t.Fatalf("cluster %d has unmixed sentinel in certificate", c.Index)
		}
	}
}

func TestDecomposeBarbell(t *testing.T) {
	g := graph.Barbell(16, 8)
	dec, err := Decompose(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if len(dec.Clusters) < 2 {
		t.Fatal("barbell stayed one cluster")
	}
	// The two cliques must not share a cluster.
	if dec.ClusterOf[0] == dec.ClusterOf[16] {
		t.Fatal("both cliques in one cluster")
	}
}

func TestDecomposeDisconnectedComponents(t *testing.T) {
	g := graph.FromEdges(7, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1}})
	dec, err := Decompose(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if len(dec.Clusters) != 3 {
		t.Fatalf("got %d clusters, want 3 (two triangles + isolated node)", len(dec.Clusters))
	}
	if len(dec.CrossEdges) != 0 {
		t.Fatalf("component split produced %d cross edges", len(dec.CrossEdges))
	}
}

func TestDecomposeBudgetStop(t *testing.T) {
	g := graph.Barbell(8, 4)
	dec, err := Decompose(g, Params{Eps: 1e-9, MinSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, dec)
	if len(dec.Clusters) != 1 {
		t.Fatalf("zero budget still cut: %d clusters", len(dec.Clusters))
	}
	if dec.Clusters[0].Cert.Reason != BudgetStop {
		t.Fatalf("reason = %v, want budget", dec.Clusters[0].Cert.Reason)
	}
}

func TestDecomposeRandomInvariants(t *testing.T) {
	r := rngutil.NewRand(5)
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(20+trial*7, 0.15, r)
		dec, err := Decompose(g, Params{MinSize: 4})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPartition(t, g, dec)
	}
}

func TestDecomposeParamValidation(t *testing.T) {
	g := graph.Ring(8)
	for _, p := range []Params{
		{Phi: 1.5},
		{Phi: -0.1},
		{Eps: 1},
		{Eps: -0.5},
		{MinSize: -3},
	} {
		if _, err := Decompose(g, p); err == nil {
			t.Errorf("Decompose accepted invalid params %+v", p)
		}
	}
	if _, err := Decompose(graph.FromEdges(0, nil), Params{}); err == nil {
		t.Error("Decompose accepted an empty graph")
	}
}
