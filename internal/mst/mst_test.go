package mst

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"almostmix/internal/cost"
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
	con, alg := led.Child(cost.Root, "construction"), led.Child(cost.Root, "algorithm")
	if con == cost.None || alg == cost.None {
		t.Fatal("ledger lacks construction/algorithm spans")
	}
	// Children sum to the parent, and the public figures read off the
	// ledger; the construction child is a copy of the hierarchy's own
	// ledger.
	if led.Total(cost.Root) != led.Rolled(con)+led.Rolled(alg) {
		t.Fatalf("root %d != construction %d + algorithm %d",
			led.Total(cost.Root), led.Rolled(con), led.Rolled(alg))
	}
	if res.Rounds != led.Total(cost.Root) {
		t.Fatalf("Rounds %d != root total %d", res.Rounds, led.Total(cost.Root))
	}
	if res.AlgorithmRounds != led.Total(alg) {
		t.Fatalf("AlgorithmRounds %d != algorithm span %d", res.AlgorithmRounds, led.Total(alg))
	}
	if led.Total(con) != f.h.ConstructionRoundsBase() {
		t.Fatalf("construction span %d != hierarchy %d", led.Total(con), f.h.ConstructionRoundsBase())
	}
	if f.h.Costs != nil {
		rows, hier := led.Rows(), f.h.Costs.Rows()
		at := slices.IndexFunc(rows, func(r cost.Row) bool { return r.Path == "mst/construction" })
		for i, r := range rows[at : at+len(hier)] {
			if r.Path != "mst/"+hier[i].Path || r.Total != hier[i].Total || r.Self != hier[i].Self {
				t.Fatalf("construction row %+v is not the hierarchy's %+v", r, hier[i])
			}
		}
	}
	// Differential: the seed code's accounting still holds.
	if res.Rounds != res.AlgorithmRounds+f.h.ConstructionRoundsBase() {
		t.Fatal("Rounds formula violated")
	}

	// Per-iteration spans: fragment exchange + repeated tree steps.
	sum := 0
	for i, it := range res.Iterations {
		sp := led.Child(alg, fmt.Sprintf("iteration-%02d", i))
		if sp == cost.None {
			t.Fatalf("no iteration-%02d span", i)
		}
		if led.Total(sp) != it.Rounds {
			t.Fatalf("iteration %d span %d != stats %d", i, led.Total(sp), it.Rounds)
		}
		fe, ts := led.Child(sp, "fragment-exchange"), led.Child(sp, "tree-steps")
		if fe == cost.None || ts == cost.None {
			t.Fatalf("iteration %d lacks fragment-exchange/tree-steps", i)
		}
		if led.Rolled(fe)+led.Rolled(ts) != led.Total(sp) {
			t.Fatalf("iteration %d children %d+%d != %d", i, led.Rolled(fe), led.Rolled(ts), led.Total(sp))
		}
		if led.Total(ts) != it.StepRounds {
			t.Fatalf("iteration %d tree-step span %d != measured step %d", i, led.Total(ts), it.StepRounds)
		}
		if rt := led.Child(ts, "route"); it.StepRounds > 0 && led.Rolled(rt) != it.StepRounds {
			t.Fatalf("iteration %d routing span %d != measured step %d", i, led.Rolled(rt), it.StepRounds)
		}
		if it.Rounds != 1+(it.UpcastSteps+it.BalanceWaves)*it.StepRounds {
			t.Fatalf("iteration %d Rounds formula violated", i)
		}
		sum += led.Total(sp)
	}
	if sum != res.AlgorithmRounds {
		t.Fatalf("iteration spans sum %d != AlgorithmRounds %d", sum, res.AlgorithmRounds)
	}
}

// raceBuild is set in race-instrumented test binaries (race_test.go).
var raceBuild bool

// runAllocCeiling bounds the heap objects one Run allocates on the shared
// fixture once its hierarchy's leaf rows are filled: per iteration one
// routing instance, which writes its spans into the Run's ledger and so
// allocates less than the route package's own ceiling; the ledger's rows,
// which grow in a pooled buffer and take one slice of their size when the
// root closes; the bookkeeping itself is node-indexed scratch allocated
// once per Run — no maps, nothing per fragment or per span. About a fifth
// above what the fixture measures (214, against 558 with a heap object
// per ledger span and a ledger per tree step). Under -race, where any
// pool may be empty, the ceiling is runRaceCeiling, about a fifth above
// the largest mean of five warm runs seen in 400 such measurements (862).
const (
	runAllocCeiling float64 = 260
	runRaceCeiling  float64 = 1040
)

func TestRunAllocations(t *testing.T) {
	fx := testFixture(t)
	run := func() {
		if _, err := Run(fx.h, rngutil.NewSource(5)); err != nil {
			t.Fatal(err)
		}
	}
	ceiling := runAllocCeiling
	if raceBuild {
		ceiling = runRaceCeiling
	}
	run() // fill the rows the tree steps use
	if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
		t.Errorf("%v allocations per Run, ceiling %v", allocs, ceiling)
	}
}
