package route

import (
	"fmt"
	"sync"
	"testing"

	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var shared = sync.OnceValues(func() (*embed.Hierarchy, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(64, 6, r)
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	return embed.Build(g, p, rngutil.NewSource(42))
})

func testHierarchy(t *testing.T) *embed.Hierarchy {
	t.Helper()
	h, err := shared()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestRoutePermutationDeliversAll(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(7))
	rep, err := Route(h, reqs, rngutil.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", rep.Delivered, len(reqs))
	}
	if rep.BaseRounds <= 0 || rep.G0Rounds <= 0 || rep.PrepRounds <= 0 {
		t.Fatalf("non-positive costs: %+v", rep)
	}
}

func TestRouteDegreeDemandDeliversAll(t *testing.T) {
	h := testHierarchy(t)
	reqs := DegreeDemand(h.Base, rngutil.NewRand(9))
	if len(reqs) != 2*h.Base.M() {
		t.Fatalf("workload size %d, want %d", len(reqs), 2*h.Base.M())
	}
	rep, err := Route(h, reqs, rngutil.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", rep.Delivered, len(reqs))
	}
}

func TestRouteSingleAndSelf(t *testing.T) {
	h := testHierarchy(t)
	reqs := []Request{
		{SrcNode: 0, DstNode: 63, DstIndex: 2},
		{SrcNode: 5, DstNode: 5, DstIndex: 0}, // self-delivery
	}
	rep, err := Route(h, reqs, rngutil.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", rep.Delivered)
	}
}

func TestRouteRejectsBadIndex(t *testing.T) {
	h := testHierarchy(t)
	reqs := []Request{{SrcNode: 0, DstNode: 1, DstIndex: 99}}
	if _, err := Route(h, reqs, rngutil.NewSource(12)); err == nil {
		t.Fatal("bad virtual index accepted")
	}
}

func TestRouteEmptyRequestList(t *testing.T) {
	h := testHierarchy(t)
	rep, err := Route(h, nil, rngutil.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || rep.G0Rounds != 0 {
		t.Fatalf("empty routing produced %+v", rep)
	}
}

func TestRouteCostDecomposition(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(14))
	rep, err := Route(h, reqs, rngutil.NewSource(15))
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for _, c := range rep.HopG0Rounds {
		hops += c
	}
	if rep.LeafG0Rounds+hops != rep.G0Rounds {
		t.Fatalf("decomposition %d (leaf) + %d (hops) != %d (total)",
			rep.LeafG0Rounds, hops, rep.G0Rounds)
	}
	if rep.BaseRounds != rep.PrepRounds+rep.G0Rounds*h.G0.EmulationRounds {
		t.Fatal("BaseRounds formula violated")
	}
}

func TestRoutePhased(t *testing.T) {
	h := testHierarchy(t)
	reqs := DegreeDemand(h.Base, rngutil.NewRand(16))
	rep, err := RoutePhased(h, reqs, 3, rngutil.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("phased delivered %d of %d", rep.Delivered, len(reqs))
	}
	if _, err := RoutePhased(h, reqs, 0, rngutil.NewSource(18)); err == nil {
		t.Fatal("zero phases accepted")
	}
}

func TestRoutePhasedOneEqualsRoute(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(19))
	a, err := Route(h, reqs, rngutil.NewSource(20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RoutePhased(h, reqs, 1, rngutil.NewSource(20))
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseRounds != b.BaseRounds || a.Delivered != b.Delivered {
		t.Fatal("RoutePhased(1) differs from Route")
	}
}

func TestRouteDeterministic(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(21))
	a, err := Route(h, reqs, rngutil.NewSource(22))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(h, reqs, rngutil.NewSource(22))
	if err != nil {
		t.Fatal(err)
	}
	if a.BaseRounds != b.BaseRounds || a.G0Rounds != b.G0Rounds {
		t.Fatalf("same seed, different costs: %+v vs %+v", a, b)
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	g := graph.Ring(30)
	reqs := RandomPermutation(g, rngutil.NewRand(23))
	seen := make([]bool, g.N())
	for _, r := range reqs {
		if seen[r.DstNode] {
			t.Fatal("destination repeated")
		}
		seen[r.DstNode] = true
		if r.DstIndex != 0 {
			t.Fatal("permutation should target index 0")
		}
	}
}

func TestDegreeDemandIndexesValid(t *testing.T) {
	r := rngutil.NewRand(24)
	g := graph.RandomRegular(20, 4, r)
	reqs := DegreeDemand(g, r)
	for _, req := range reqs {
		if req.DstIndex < 0 || req.DstIndex >= g.Degree(req.DstNode) {
			t.Fatalf("invalid virtual index %d for node %d", req.DstIndex, req.DstNode)
		}
	}
}

func TestRouteOnDeeperHierarchy(t *testing.T) {
	// A larger base graph gives three partition levels; the recursion
	// must still deliver everything.
	if testing.Short() {
		t.Skip("skipping deep hierarchy build in -short mode")
	}
	h, err := deeper()
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels < 3 {
		t.Fatalf("expected >= 3 levels, got %d", h.Levels)
	}
	reqs := RandomPermutation(h.Base, rngutil.NewRand(27))
	rep, err := Route(h, reqs, rngutil.NewSource(28))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("deep hierarchy delivered %d of %d", rep.Delivered, len(reqs))
	}
}

// Property: after routing, every packet's final virtual node has the same
// owner and index the request named — checked through the virtual map,
// independent of the router's own bookkeeping.
func TestPropertyDeliveryMatchesRequests(t *testing.T) {
	h := testHierarchy(t)
	reqs := DegreeDemand(h.Base, rngutil.NewRand(41))
	rep, err := Route(h, reqs, rngutil.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", rep.Delivered, len(reqs))
	}
	// Route re-verifies positions internally; cross-check the encoding
	// path: each request's destination vid must exist and round-trip.
	for _, req := range reqs {
		vid := h.VM.VID(req.DstNode, req.DstIndex)
		if h.VM.Owner(vid) != req.DstNode || h.VM.IndexAtOwner(vid) != req.DstIndex {
			t.Fatalf("vid round trip failed for %+v", req)
		}
	}
}

// The hop decomposition must charge only levels that exist.
func TestHopDecompositionLevels(t *testing.T) {
	h := testHierarchy(t)
	rep, err := Route(h, RandomPermutation(h.Base, rngutil.NewRand(43)), rngutil.NewSource(44))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HopG0Rounds) != h.Levels {
		t.Fatalf("hop vector length %d, want %d", len(rep.HopG0Rounds), h.Levels)
	}
	for l, c := range rep.HopG0Rounds {
		if c < 0 {
			t.Fatalf("negative hop cost at level %d", l)
		}
	}
}

// Routing on a freshly built Margulis expander exercises non-regular
// virtual degree distributions (degree varies 4..8 after simplification).
func TestRouteOnMargulis(t *testing.T) {
	g := graph.Margulis(6)
	p := embed.DefaultParams()
	h, err := embed.Build(g, p, rngutil.NewSource(45))
	if err != nil {
		t.Fatal(err)
	}
	reqs := RandomPermutation(g, rngutil.NewRand(46))
	rep, err := Route(h, reqs, rngutil.NewSource(47))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", rep.Delivered, len(reqs))
	}
}

func TestRouteExactDeliversAndBounds(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(51))
	ex, err := RouteExact(h, reqs, rngutil.NewSource(52))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Paper.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", ex.Paper.Delivered, len(reqs))
	}
	if ex.ExactRounds <= 0 || ex.Dilation <= 0 {
		t.Fatalf("degenerate exact schedule: %+v", ex)
	}
	// The exact schedule pipelines everything, so it can never exceed
	// the per-level full-round accounting.
	if ex.ExactRounds > ex.Paper.BaseRounds {
		t.Fatalf("exact %d rounds above paper accounting %d", ex.ExactRounds, ex.Paper.BaseRounds)
	}
	lower := ex.Congestion
	if ex.Dilation > lower {
		lower = ex.Dilation
	}
	if ex.ExactRounds < lower {
		t.Fatalf("makespan %d below congestion/dilation bound %d", ex.ExactRounds, lower)
	}
}

func TestRouteExactMatchesRouteSemantics(t *testing.T) {
	// The exact variant must use the same recursion: same seeds give the
	// same paper-side report.
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(53))
	plain, err := Route(h, reqs, rngutil.NewSource(54))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := RouteExact(h, reqs, rngutil.NewSource(54))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Paper.G0Rounds != plain.G0Rounds || ex.Paper.Delivered != plain.Delivered {
		t.Fatalf("paper-side reports differ: %+v vs %+v", ex.Paper, plain)
	}
}

func TestRouteLedgerDerivesReport(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(14))
	rep, err := Route(h, reqs, rngutil.NewSource(15))
	if err != nil {
		t.Fatal(err)
	}
	led := rep.Costs
	if led == nil {
		t.Fatal("Route left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	prep, rec := led.Root.Child("prep"), led.Root.Child("recursion")
	if prep == nil || rec == nil {
		t.Fatal("ledger lacks prep/recursion spans")
	}
	// Children sum to the parent.
	if led.Root.Total() != prep.Rolled()+rec.Rolled() {
		t.Fatalf("root %d != prep %d + recursion %d", led.Root.Total(), prep.Rolled(), rec.Rolled())
	}
	// Every report figure is the corresponding span's value.
	if rep.PrepRounds != prep.Total() {
		t.Fatalf("PrepRounds %d != prep span %d", rep.PrepRounds, prep.Total())
	}
	if rep.G0Rounds != rec.Total() {
		t.Fatalf("G0Rounds %d != recursion span %d", rep.G0Rounds, rec.Total())
	}
	if rep.BaseRounds != led.Root.Total() {
		t.Fatalf("BaseRounds %d != root total %d", rep.BaseRounds, led.Root.Total())
	}
	leaf := rec.Child("leaf-movement")
	if leaf == nil || leaf.Rolled() != rep.LeafG0Rounds {
		t.Fatalf("leaf-movement span does not carry LeafG0Rounds %d", rep.LeafG0Rounds)
	}
	recSum := leaf.Rolled()
	for l, v := range rep.HopG0Rounds {
		sp := rec.Child(fmt.Sprintf("portal-hops-level-%d", l+1))
		if sp == nil || sp.Rolled() != v {
			t.Fatalf("portal-hops-level-%d span does not carry %d", l+1, v)
		}
		recSum += sp.Rolled()
	}
	if recSum != rec.Total() {
		t.Fatalf("recursion children sum %d != span total %d", recSum, rec.Total())
	}
	// Differential: the seed code's closed-form accounting still holds.
	if rep.BaseRounds != rep.PrepRounds+rep.G0Rounds*h.G0.EmulationRounds {
		t.Fatal("BaseRounds formula violated")
	}
}

func TestRouteExactSharesLedgerAccounting(t *testing.T) {
	h := testHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(24))
	ex, err := RouteExact(h, reqs, rngutil.NewSource(25))
	if err != nil {
		t.Fatal(err)
	}
	rep := ex.Paper
	if rep.Costs == nil || rep.Costs.Err() != nil {
		t.Fatalf("exact route ledger missing or violated: %v", rep.Costs.Err())
	}
	if rep.BaseRounds != rep.Costs.Root.Total() {
		t.Fatalf("BaseRounds %d != ledger root %d", rep.BaseRounds, rep.Costs.Root.Total())
	}
}

func TestRoutePhasedLedger(t *testing.T) {
	h := testHierarchy(t)
	reqs := DegreeDemand(h.Base, rngutil.NewRand(16))
	rep, err := RoutePhased(h, reqs, 3, rngutil.NewSource(17))
	if err != nil {
		t.Fatal(err)
	}
	led := rep.Costs
	if led == nil {
		t.Fatal("RoutePhased left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.BaseRounds != led.Root.Total() {
		t.Fatalf("BaseRounds %d != ledger root %d", rep.BaseRounds, led.Root.Total())
	}
	sum := 0
	for _, ph := range led.Root.Children {
		sum += ph.Rolled()
	}
	if sum != led.Root.Total() {
		t.Fatalf("phase spans sum %d != root %d", sum, led.Root.Total())
	}
}
