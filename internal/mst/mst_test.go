package mst

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
)

type fixture struct {
	g *graph.Graph
	h *embed.Hierarchy
}

var shared = sync.OnceValues(func() (*fixture, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(64, 6, r)
	g.AssignDistinctRandomWeights(r)
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(2))
	if err != nil {
		return nil, err
	}
	return &fixture{g: g, h: h}, nil
})

func testFixture(t *testing.T) *fixture {
	t.Helper()
	f, err := shared()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return f
}

func sortedCopy(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	sort.Ints(out)
	return out
}

func TestKruskalOnKnownGraph(t *testing.T) {
	// Triangle with weights 1, 2, 3: MST = the two lightest edges.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}})
	edges, w := mstbase.Kruskal(g)
	if w != 3 {
		t.Fatalf("MST weight %v, want 3", w)
	}
	got := sortedCopy(edges)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("MST edges %v, want [0 1]", got)
	}
}

func TestKruskalSpanningTreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(24, 0.3, r)
		if err != nil {
			return true
		}
		g.AssignDistinctRandomWeights(r)
		edges, _ := mstbase.Kruskal(g)
		if len(edges) != g.N()-1 {
			return false
		}
		// The chosen edges must connect the graph.
		sub := graph.Build(g.N(), func(add func(u, v int, w float64)) {
			for _, id := range edges {
				e := g.Edge(id)
				add(e.U, e.V, e.W)
			}
		})
		return sub.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalMSTMatchesKruskal(t *testing.T) {
	fx := testFixture(t)
	res, err := Run(fx.h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	wantEdges, wantW := mstbase.Kruskal(fx.g)
	if res.Weight != wantW {
		t.Fatalf("hierarchical MST weight %v, Kruskal %v", res.Weight, wantW)
	}
	got, want := sortedCopy(res.Edges), sortedCopy(wantEdges)
	if len(got) != len(want) {
		t.Fatalf("edge count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("edge sets differ at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if res.Rounds <= res.AlgorithmRounds {
		t.Fatal("total rounds should include construction")
	}
}

func TestMSTIterationInvariants(t *testing.T) {
	fx := testFixture(t)
	res, err := Run(fx.h, rngutil.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	n := fx.g.N()
	logN := log2int(n)
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	// Fragments shrink by a constant factor in expectation; any single
	// iteration may stall on unlucky coins, but counts never increase.
	prevFrags := n + 1
	for i, it := range res.Iterations {
		if it.Fragments > prevFrags {
			t.Fatalf("iteration %d: fragments increased (%d -> %d)", i, prevFrags, it.Fragments)
		}
		prevFrags = it.Fragments
		if it.Rounds <= 0 {
			t.Fatalf("iteration %d has non-positive rounds", i)
		}
	}
	if got := res.Iterations[0].Fragments; got != n {
		t.Fatalf("first iteration saw %d fragments, want %d", got, n)
	}
	// Lemma 4.1 shape: depth stays O(log² n) with small constants.
	if res.MaxTreeDepth > 4*logN*logN {
		t.Fatalf("max tree depth %d exceeds 4·log²n = %d", res.MaxTreeDepth, 4*logN*logN)
	}
	// Degree invariant: inDeg ≤ d_G(v)·O(log n).
	if res.MaxInDegRatio > 4*float64(logN) {
		t.Fatalf("max in-degree ratio %v exceeds 4·log n", res.MaxInDegRatio)
	}
}

func TestMSTDeterministic(t *testing.T) {
	fx := testFixture(t)
	a, err := Run(fx.h, rngutil.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fx.h, rngutil.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Weight != b.Weight {
		t.Fatal("same seed, different MST run")
	}
}

func TestMSTOnGnp(t *testing.T) {
	r := rngutil.NewRand(8)
	g, err := graph.ConnectedGnp(48, 0.25, r)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignDistinctRandomWeights(r)
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(h, rngutil.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	_, wantW := mstbase.Kruskal(g)
	if res.Weight != wantW {
		t.Fatalf("weight %v, want %v", res.Weight, wantW)
	}
}

func TestForestBasics(t *testing.T) {
	f := NewForest(5)
	if got := f.Relabel(); got != 5 {
		t.Fatalf("fresh forest has %d fragments", got)
	}
	f.Attach(1, 0)
	f.Attach(2, 1)
	if got := f.Relabel(); got != 3 {
		t.Fatalf("fragments after merges = %d, want 3", got)
	}
	if f.Fragment(2) != 0 || f.Fragment(1) != 0 {
		t.Fatal("relabel wrong")
	}
	depths := make([]int32, 5)
	f.depthsInto(depths)
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 {
		t.Fatalf("depths %v", depths)
	}
	if f.InDegree(0) != 1 || f.InDegree(1) != 1 {
		t.Fatal("in-degrees wrong")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForestAttachNonRootPanics(t *testing.T) {
	f := NewForest(3)
	f.Attach(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("attaching non-root did not panic")
		}
	}()
	f.Attach(1, 2)
}

func TestBalanceKeepsValidTree(t *testing.T) {
	// Build a deliberately deep head tree (a path), attach many tails,
	// and verify balancing keeps the structure a valid tree.
	const n = 40
	f := NewForest(n)
	// Path 0 <- 1 <- ... <- 19 (0 is root).
	for v := int32(1); v < 20; v++ {
		f.Attach(v, v-1)
	}
	f.Relabel()
	sc := newScratch(n)
	copy(sc.snapParent, f.parent)
	f.depthsInto(sc.depth)
	// Attach tails 20..29 to points spread along the path.
	for i := int32(0); i < 10; i++ {
		y := i * 2
		f.Attach(20+i, y)
		sc.attachPoints = append(sc.attachPoints, y)
	}
	res := f.balance(sc)
	if res.Waves == 0 {
		t.Fatal("no balancing waves ran")
	}
	f.Relabel()
	if err := f.Validate(); err != nil {
		t.Fatalf("balance broke the forest: %v", err)
	}
	for v := int32(0); v < 30; v++ {
		if f.Fragment(v) != 0 {
			t.Fatalf("node %d left fragment 0", v)
		}
	}
}

func TestComputeMWOE(t *testing.T) {
	// Two fragments {0,1} and {2,3} with crossing edges of weight 5, 3.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}, {U: 0, V: 2, W: 5}, {U: 1, V: 3, W: 3}})
	heavy, light := 2, 3
	f := NewForest(4)
	f.Attach(1, 0)
	f.Attach(3, 2)
	f.Relabel()
	mwoe := make([]mstbase.MWOE, g.N())
	mstbase.ScanMWOE(g, f.frag, mwoe)
	if got := mwoe[f.Fragment(0)]; got.Edge != light || got.Y != 3 {
		t.Fatalf("fragment 0 MWOE = %+v, want edge %d (not %d) to node 3", got, light, heavy)
	}
	if got := mwoe[f.Fragment(2)]; got.Edge != light || got.Y != 1 {
		t.Fatalf("fragment 2 MWOE = %+v, want edge %d to node 1", got, light)
	}
	// Run's hot path: the scan writes into the caller's out and nothing else.
	if allocs := testing.AllocsPerRun(10, func() { mstbase.ScanMWOE(g, f.frag, mwoe) }); allocs != 0 {
		t.Fatalf("%v allocations per scan, want 0", allocs)
	}
}

func TestMSTLedgerDerivesRounds(t *testing.T) {
	f := testFixture(t)
	res, err := Run(f.h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	led := res.Costs
	if led == nil {
		t.Fatal("Run left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	con, alg := led.Root.Child("construction"), led.Root.Child("algorithm")
	if con == nil || alg == nil {
		t.Fatal("ledger lacks construction/algorithm spans")
	}
	// Children sum to the parent, and the public figures read off the
	// ledger; the construction child is the hierarchy's own ledger.
	if led.Root.Total() != con.Rolled()+alg.Rolled() {
		t.Fatalf("root %d != construction %d + algorithm %d",
			led.Root.Total(), con.Rolled(), alg.Rolled())
	}
	if res.Rounds != led.Root.Total() {
		t.Fatalf("Rounds %d != root total %d", res.Rounds, led.Root.Total())
	}
	if res.AlgorithmRounds != alg.Total() {
		t.Fatalf("AlgorithmRounds %d != algorithm span %d", res.AlgorithmRounds, alg.Total())
	}
	if con.Total() != f.h.ConstructionRoundsBase() {
		t.Fatalf("construction span %d != hierarchy %d", con.Total(), f.h.ConstructionRoundsBase())
	}
	if f.h.Costs != nil && con != f.h.Costs.Root {
		t.Fatal("construction span is not the hierarchy's own ledger root")
	}
	// Differential: the seed code's accounting still holds.
	if res.Rounds != res.AlgorithmRounds+f.h.ConstructionRoundsBase() {
		t.Fatal("Rounds formula violated")
	}

	// Per-iteration spans: fragment exchange + repeated tree steps.
	sum := 0
	for i, it := range res.Iterations {
		sp := alg.Child(fmt.Sprintf("iteration-%02d", i))
		if sp == nil {
			t.Fatalf("no iteration-%02d span", i)
		}
		if sp.Total() != it.Rounds {
			t.Fatalf("iteration %d span %d != stats %d", i, sp.Total(), it.Rounds)
		}
		fe, ts := sp.Child("fragment-exchange"), sp.Child("tree-steps")
		if fe == nil || ts == nil {
			t.Fatalf("iteration %d lacks fragment-exchange/tree-steps", i)
		}
		if fe.Rolled()+ts.Rolled() != sp.Total() {
			t.Fatalf("iteration %d children %d+%d != %d", i, fe.Rolled(), ts.Rolled(), sp.Total())
		}
		if ts.Total() != it.StepRounds {
			t.Fatalf("iteration %d tree-step span %d != measured step %d", i, ts.Total(), it.StepRounds)
		}
		if it.Rounds != 1+(it.UpcastSteps+it.BalanceWaves)*it.StepRounds {
			t.Fatalf("iteration %d Rounds formula violated", i)
		}
		sum += sp.Total()
	}
	if sum != res.AlgorithmRounds {
		t.Fatalf("iteration spans sum %d != AlgorithmRounds %d", sum, res.AlgorithmRounds)
	}
}

// runAllocCeiling bounds the heap objects one Run allocates on the shared
// fixture once its hierarchy's leaf rows are filled: per iteration one
// routing instance (the route package's own ceiling) and the iteration's
// ledger spans; the bookkeeping itself is node-indexed scratch allocated
// once per Run — no maps, nothing per fragment. About a fifth above what
// the fixture's sixteen iterations measure (1 825, against 12 801 with the
// map-based bookkeeping over the per-run leaf search).
const runAllocCeiling = 2200

func TestRunAllocations(t *testing.T) {
	fx := testFixture(t)
	run := func() {
		if _, err := Run(fx.h, rngutil.NewSource(5)); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the rows the tree steps use
	if allocs := testing.AllocsPerRun(5, run); allocs > runAllocCeiling {
		t.Errorf("%v allocations per Run, ceiling %d", allocs, runAllocCeiling)
	}
}
