package route

import (
	"fmt"
	"strings"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func buildTier(t *testing.T, g *graph.Graph, dp decomp.Params) *embed.Partitioned {
	t.Helper()
	dec, err := decomp.Decompose(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	return pe
}

func checkStitchedReport(t *testing.T, rep *PartitionedReport, want int) {
	t.Helper()
	if rep.Delivered != want {
		t.Fatalf("delivered %d of %d", rep.Delivered, want)
	}
	if rep.BaseRounds != rep.ClusterRounds+rep.BoundaryRounds {
		t.Fatalf("BaseRounds %d != ClusterRounds %d + BoundaryRounds %d",
			rep.BaseRounds, rep.ClusterRounds, rep.BoundaryRounds)
	}
	if got := rep.Costs.Total(cost.Root); got != rep.BaseRounds {
		t.Fatalf("ledger root totals %d, report says %d", got, rep.BaseRounds)
	}
	if err := rep.Costs.Err(); err != nil {
		t.Fatalf("ledger violations: %v", err)
	}
}

func TestRoutePartitionedLollipop(t *testing.T) {
	g := graph.Lollipop(32, 16)
	pe := buildTier(t, g, decomp.Params{})
	reqs := RandomPermutation(g, rngutil.NewRand(2))
	rep, err := RoutePartitioned(pe, reqs, rngutil.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	checkStitchedReport(t, rep, len(reqs))
	if rep.Waves < 2 {
		t.Fatalf("cross-cluster permutation finished in %d waves", rep.Waves)
	}
	if rep.BoundaryRounds == 0 {
		t.Fatal("cross-cluster traffic charged no boundary rounds")
	}
}

func TestRoutePartitionedSingleClusterMatchesDirect(t *testing.T) {
	g := graph.RandomRegular(64, 8, rngutil.NewRand(5))
	pe := buildTier(t, g, decomp.Params{})
	if len(pe.Clusters) != 1 {
		t.Fatalf("expander split into %d clusters", len(pe.Clusters))
	}
	reqs := RandomPermutation(g, rngutil.NewRand(6))
	rep, err := RoutePartitioned(pe, reqs, rngutil.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	checkStitchedReport(t, rep, len(reqs))
	if rep.Waves != 1 || rep.BoundaryRounds != 0 {
		t.Fatalf("single cluster run used %d waves, %d boundary rounds", rep.Waves, rep.BoundaryRounds)
	}
	// The single batch is a plain §3.2 route of the same requests on the
	// cluster hierarchy (the cluster view of the whole graph is the
	// identity, so the request set maps onto itself).
	direct, err := Route(pe.Clusters[0].H, reqs, rngutil.NewSource(7).Child("wave", 0).Child("cluster", 0))
	if err != nil {
		t.Fatal(err)
	}
	if direct.Delivered != len(reqs) {
		t.Fatalf("direct baseline delivered %d of %d", direct.Delivered, len(reqs))
	}
	if rep.ClusterRounds != direct.BaseRounds {
		t.Fatalf("stitched cluster rounds %d != direct route %d", rep.ClusterRounds, direct.BaseRounds)
	}
}

func TestRoutePartitionedDirectTiers(t *testing.T) {
	// A 4-path under Phi=0.5 splits into two 2-node clusters, both below
	// the hierarchy's minimum, so both tiers are direct BFS tiers.
	g := graph.Path(4)
	pe := buildTier(t, g, decomp.Params{Phi: 0.5, Eps: 0.9, MinSize: 2})
	for i, ce := range pe.Clusters {
		if !ce.Direct {
			t.Fatalf("cluster %d unexpectedly got a hierarchy", i)
		}
	}
	reqs := []Request{
		{SrcNode: 0, DstNode: 3, DstIndex: 0},
		{SrcNode: 3, DstNode: 1, DstIndex: 1},
		{SrcNode: 1, DstNode: 1, DstIndex: 0},
	}
	rep, err := RoutePartitioned(pe, reqs, rngutil.NewSource(1))
	if err != nil {
		t.Fatal(err)
	}
	checkStitchedReport(t, rep, len(reqs))
}

func TestRoutePartitionedBarbellDeterminism(t *testing.T) {
	g := graph.Barbell(16, 8)
	pe := buildTier(t, g, decomp.Params{})
	reqs := RandomPermutation(g, rngutil.NewRand(4))
	fingerprint := func() string {
		rep, err := RoutePartitioned(pe, reqs, rngutil.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		checkStitchedReport(t, rep, len(reqs))
		var b strings.Builder
		fmt.Fprintf(&b, "waves=%d base=%d cluster=%d boundary=%d batches=%d maxload=%d\n",
			rep.Waves, rep.BaseRounds, rep.ClusterRounds, rep.BoundaryRounds,
			rep.ClusterBatches, rep.MaxBoundaryLoad)
		for _, row := range rep.Costs.Rows() {
			fmt.Fprintf(&b, "%+v\n", row)
		}
		return b.String()
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Fatal("identical stitched runs produced different reports")
	}
}

func TestRoutePartitionedRejectsBadRequests(t *testing.T) {
	g := graph.Lollipop(16, 8)
	pe := buildTier(t, g, decomp.Params{})
	for _, bad := range []Request{
		{SrcNode: -1, DstNode: 0, DstIndex: 0},
		{SrcNode: 0, DstNode: g.N(), DstIndex: 0},
		{SrcNode: 0, DstNode: 1, DstIndex: g.Degree(1)},
	} {
		if _, err := RoutePartitioned(pe, []Request{bad}, rngutil.NewSource(1)); err == nil {
			t.Errorf("RoutePartitioned accepted bad request %+v", bad)
		}
	}
}
