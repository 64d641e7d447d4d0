package embed

import (
	"errors"
	"strings"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/decomp"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func buildPartitionedOn(t *testing.T, g *graph.Graph) *Partitioned {
	t.Helper()
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := BuildPartitioned(dec, DefaultParams(), rngutil.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func TestBuildPartitionedLollipop(t *testing.T) {
	g := graph.Lollipop(32, 16)
	pe := buildPartitionedOn(t, g)
	if len(pe.Clusters) != len(pe.Dec.Clusters) {
		t.Fatalf("%d embeddings for %d clusters", len(pe.Clusters), len(pe.Dec.Clusters))
	}
	sawHierarchy := false
	for i, ce := range pe.Clusters {
		if ce.Cluster != pe.Dec.Clusters[i] {
			t.Fatalf("embedding %d bound to wrong cluster", i)
		}
		if ce.Direct {
			if ce.H != nil {
				t.Fatalf("direct tier %d carries a hierarchy", i)
			}
			continue
		}
		sawHierarchy = true
		if ce.H.Base != ce.Cluster.Sub.G {
			t.Fatalf("hierarchy %d not built on the cluster subgraph", i)
		}
		if err := ce.H.Validate(); err != nil {
			t.Fatalf("cluster %d hierarchy invalid: %v", i, err)
		}
	}
	if !sawHierarchy {
		t.Fatal("no cluster got a hierarchy (clique should)")
	}
	// The quotient must be connected (base graph is) and its bundles
	// must partition the cross edges.
	if !pe.Quotient.IsConnected() {
		t.Fatal("quotient of a connected base graph is disconnected")
	}
	bundled := 0
	for qi, bundle := range pe.Bundles {
		if len(bundle) == 0 {
			t.Fatalf("quotient edge %d has an empty bundle", qi)
		}
		qe := pe.Quotient.Edge(qi)
		for j, id := range bundle {
			if j > 0 && bundle[j-1] >= id {
				t.Fatalf("bundle %d not ascending: %v", qi, bundle)
			}
			e := g.Edge(id)
			cu, cv := pe.ClusterOf(e.U), pe.ClusterOf(e.V)
			if cu > cv {
				cu, cv = cv, cu
			}
			a, b := int(qe.U), int(qe.V)
			if a > b {
				a, b = b, a
			}
			if cu != a || cv != b {
				t.Fatalf("bundle %d edge %d connects clusters (%d,%d), quotient edge is (%d,%d)", qi, id, cu, cv, a, b)
			}
		}
		bundled += len(bundle)
	}
	if bundled != len(pe.Dec.CrossEdges) {
		t.Fatalf("bundles cover %d cross edges of %d", bundled, len(pe.Dec.CrossEdges))
	}
	// Construction cost is the max over clusters, and the ledger agrees.
	max := 0
	for _, ce := range pe.Clusters {
		if r := ce.ConstructionRounds(); r > max {
			max = r
		}
	}
	if pe.ConstructionRoundsBase() != max {
		t.Fatalf("ConstructionRoundsBase=%d, max cluster=%d", pe.ConstructionRoundsBase(), max)
	}
	if got := pe.Costs.Total(cost.Root); got != max {
		t.Fatalf("ledger root totals %d, want max cluster construction %d", got, max)
	}
}

func TestBuildPartitionedSingleClusterExpander(t *testing.T) {
	g := graph.RandomRegular(64, 8, rngutil.NewRand(3))
	pe := buildPartitionedOn(t, g)
	if len(pe.Clusters) != 1 {
		t.Fatalf("expander split into %d clusters", len(pe.Clusters))
	}
	if pe.Clusters[0].Direct {
		t.Fatal("expander cluster fell back to direct tier")
	}
	if pe.Quotient.M() != 0 || len(pe.Bundles) != 0 {
		t.Fatalf("single cluster but quotient has %d edges", pe.Quotient.M())
	}
}

func TestBuildPartitionedDirectFallback(t *testing.T) {
	// A 4-path under Phi=0.5 splits at the middle edge into two 2-node
	// clusters (each at MinSize), both below the hierarchy's minimum —
	// the tiers must be direct.
	g := graph.Path(4)
	dec, err := decomp.Decompose(g, decomp.Params{Phi: 0.5, Eps: 0.9, MinSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Clusters) < 2 {
		t.Fatalf("4-path stayed %d cluster(s)", len(dec.Clusters))
	}
	pe, err := BuildPartitioned(dec, Params{}, rngutil.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, ce := range pe.Clusters {
		if !ce.Direct {
			t.Fatalf("cluster %d (n=%d) should be a direct tier", i, ce.Cluster.Sub.G.N())
		}
		if ce.H != nil {
			t.Fatalf("direct tier %d carries a hierarchy", i)
		}
		if ce.DirectRounds != ce.Cluster.Sub.G.Diameter() {
			t.Fatalf("cluster %d direct rounds %d != diameter %d", i, ce.DirectRounds, ce.Cluster.Sub.G.Diameter())
		}
	}
}

// TestBuildDisconnectedError pins the error contract of satellite (c):
// embed.Build on a disconnected graph reports the component count and
// points the caller at the decomposition path.
func TestBuildDisconnectedError(t *testing.T) {
	g := graph.FromEdges(8, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1}, {U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 3, W: 1}})
	_, err := Build(g, DefaultParams(), rngutil.NewSource(1))
	if err == nil {
		t.Fatal("Build accepted a disconnected graph")
	}
	if !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("error does not wrap graph.ErrDisconnected: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "disconnected (3 connected components)") {
		t.Fatalf("error does not report the component count: %q", msg)
	}
	if !strings.Contains(msg, "-decomp") {
		t.Fatalf("error does not point at -decomp: %q", msg)
	}
}
