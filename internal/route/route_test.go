package route

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// buildFixture builds the two-level hierarchy most tests route on.
func buildFixture() (*embed.Hierarchy, error) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(1))
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	return embed.Build(g, p, rngutil.NewSource(42))
}

var shared = sync.OnceValues(buildFixture)

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

// freshHierarchy builds the shared fixture's hierarchy anew, so that none
// of its leaf route rows has been filled yet.
func freshHierarchy(t *testing.T) *embed.Hierarchy {
	t.Helper()
	h, err := buildFixture()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

// Concurrent runs on one hierarchy race to fill the same leaf route rows;
// each must report exactly what it reports alone.
func TestRouteConcurrentOnSharedHierarchy(t *testing.T) {
	h := freshHierarchy(t)
	const runs = 8
	describe := func(i int) (string, error) {
		seed := uint64(100 + i)
		reqs := RandomPermutation(h.Base, rngutil.NewRand(seed))
		if i%2 == 1 {
			reqs = DegreeDemand(h.Base, rngutil.NewRand(seed))
		}
		rep, err := Route(h, reqs, rngutil.NewSource(seed))
		if err != nil {
			return "", err
		}
		out := new(bytes.Buffer)
		describeReport(out, fmt.Sprintf("run-%d", i), rep)
		return out.String(), nil
	}
	var wg sync.WaitGroup
	got := make([]string, runs)
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = describe(i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		want, err := describe(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("run %d differs from its serial run:\n--- concurrent\n%s--- serial\n%s", i, got[i], want)
		}
	}
}

// The leaf route rows are a memo of the overlay, not of the traffic: the
// same requests on a fresh hierarchy and on one whose every row is filled
// give the same reports, ledgers and per-packet traversals.
func TestRouteColdAndWarmRowsAgree(t *testing.T) {
	h := freshHierarchy(t)
	reqs := RandomPermutation(h.Base, rngutil.NewRand(61))
	cold := new(bytes.Buffer)
	if err := describeDemand(cold, "perm", h, reqs, 62); err != nil {
		t.Fatal(err)
	}
	leaf := h.Overlay(h.Levels)
	for vid := 0; vid < h.VM.Count(); vid++ {
		leaf.RouteRow(int32(vid))
	}
	warm := new(bytes.Buffer)
	if err := describeDemand(warm, "perm", h, reqs, 62); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("cold and warm runs differ:\n--- cold\n%s--- warm\n%s", cold, warm)
	}
}

// A leaf request the overlay cannot serve is an attributed error, the
// first time (the row is searched) and every later time (the row is read).
func TestLeafPathErrorsFromCachedRow(t *testing.T) {
	// Part 0 = {0,1,2,3} in two components {0,1} and {2,3}; part 1 = {4,5}.
	g := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 1}})
	leaf := &embed.Overlay{Level: 1, Graph: g, PartOf: []int32{0, 0, 0, 0, 1, 1}, NumParts: 2}
	r := &router{h: &embed.Hierarchy{Levels: 1, Upper: []*embed.Overlay{leaf}}, scratch: new(scratch)}
	for pass := 0; pass < 2; pass++ {
		path, err := r.leafPath(0, 1)
		if err != nil || len(path) != 2 || path[0] != 0 || path[1] != 1 {
			t.Fatalf("pass %d: path 0→1 = %v, %v", pass, path, err)
		}
		_, err = r.leafPath(0, 2)
		if err == nil || !strings.Contains(err.Error(), "vid 2 unreachable from 0 in leaf part 0") {
			t.Fatalf("pass %d: unreachable request: %v", pass, err)
		}
		_, err = r.leafPath(0, 4)
		if err == nil || !strings.Contains(err.Error(), "across parts (0 vs 1)") {
			t.Fatalf("pass %d: cross-part request: %v", pass, err)
		}
	}
}

// raceBuild is set in race-instrumented test binaries (race_test.go).
var raceBuild bool

// routeAllocCeiling bounds the heap objects one Route allocates on a
// hierarchy whose leaf rows are filled. The run's scratch and every leaf
// batch's pathsched workspace come from pools, so a warm Route allocates
// only what it returns or does not pool: the router, the report and its
// ledger spans, the route stream and what the preparation walks return
// (randomwalk.RunAllocCeiling; their step state is pooled too) — nothing
// per packet, per leaf batch or per level. About a fifth above what the
// fixture measures (26 for both demands, against 85 and 87 with per-run
// scratch). Under -race the runtime drops a quarter of what a sync.Pool
// is handed, so any pool may be empty; there the ceiling is
// routeRaceCeiling, about a fifth above a run that finds every pool empty
// (up to 89 measured).
var (
	routeAllocCeiling = map[string]float64{"perm": 31, "degree": 31}
	routeRaceCeiling  = map[string]float64{"perm": 105, "degree": 105}
)

func TestRouteAllocationsWarm(t *testing.T) {
	h := testHierarchy(t)
	for name, reqs := range map[string][]Request{
		"perm":   RandomPermutation(h.Base, rngutil.NewRand(71)),
		"degree": DegreeDemand(h.Base, rngutil.NewRand(72)),
	} {
		route := func() {
			if _, err := Route(h, reqs, rngutil.NewSource(73)); err != nil {
				t.Fatal(err)
			}
		}
		ceiling := routeAllocCeiling[name]
		if raceBuild {
			ceiling = routeRaceCeiling[name]
		}
		route() // fill the rows this demand uses
		if allocs := testing.AllocsPerRun(5, route); allocs > ceiling {
			t.Errorf("%s: %v allocations per warm Route, ceiling %v", name, allocs, ceiling)
		}
	}
}
