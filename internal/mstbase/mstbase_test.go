package mstbase

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func sortedCopy(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	sort.Ints(out)
	return out
}

func assertMatchesKruskal(t *testing.T, g *graph.Graph, got *Result) {
	t.Helper()
	wantEdges, wantW := Kruskal(g)
	if got.Weight != wantW {
		t.Fatalf("weight %v, want %v", got.Weight, wantW)
	}
	a, b := sortedCopy(got.Edges), sortedCopy(wantEdges)
	if len(a) != len(b) {
		t.Fatalf("edge count %d, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edges differ at %d", i)
		}
	}
}

func TestGHSMatchesKruskal(t *testing.T) {
	r := rngutil.NewRand(1)
	for _, g := range []*graph.Graph{
		graph.Ring(20),
		graph.Grid(5, 6),
		graph.RandomRegular(40, 4, r),
		graph.Lollipop(10, 10),
	} {
		g.AssignDistinctRandomWeights(r)
		res, err := GHS(g)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesKruskal(t, g, res)
		if res.Rounds <= 0 || res.Iterations <= 0 {
			t.Fatalf("bad accounting: %+v", res)
		}
	}
}

func TestKPMatchesKruskal(t *testing.T) {
	r := rngutil.NewRand(2)
	for _, g := range []*graph.Graph{
		graph.Ring(20),
		graph.Grid(5, 6),
		graph.RandomRegular(40, 4, r),
		graph.Lollipop(10, 10),
		graph.Star(15),
	} {
		g.AssignDistinctRandomWeights(r)
		res, err := KP(g)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesKruskal(t, g, res)
		if res.Rounds != res.Phase1Rounds+res.Phase2Rounds {
			t.Fatalf("phase decomposition broken: %+v", res)
		}
	}
}

func TestBaselinesRejectDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := GHS(g); err == nil {
		t.Fatal("GHS accepted disconnected graph")
	}
	if _, err := KP(g); err == nil {
		t.Fatal("KP accepted disconnected graph")
	}
}

func TestGHSRoundsGrowOnRings(t *testing.T) {
	// Ring fragments have diameter Θ(fragment size): GHS cost is ~linear.
	r := rngutil.NewRand(3)
	g32 := graph.Ring(32)
	g32.AssignDistinctRandomWeights(r)
	g128 := graph.Ring(128)
	g128.AssignDistinctRandomWeights(r)
	a, err := GHS(g32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GHS(g128)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rounds < 2*a.Rounds {
		t.Fatalf("GHS rounds %d (n=32) vs %d (n=128): expected ~linear growth", a.Rounds, b.Rounds)
	}
}

func TestKPBeatsGHSOnLowDiameterDenseGraphs(t *testing.T) {
	// On a low-diameter expander with long fragment chains avoided,
	// KP's pipelined phase 2 should not be slower than GHS by much; the
	// crossover experiment (E1) quantifies this. Here: sanity that KP
	// terminates with Õ(D+√n)-flavored costs, i.e., far below n on a
	// large expander.
	r := rngutil.NewRand(4)
	g := graph.RandomRegular(256, 8, r)
	g.AssignDistinctRandomWeights(r)
	res, err := KP(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 20*256 {
		t.Fatalf("KP rounds %d look superlinear", res.Rounds)
	}
}

func TestPropertyBothBaselinesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(24, 0.25, r)
		if err != nil {
			return true
		}
		g.AssignDistinctRandomWeights(r)
		a, err := GHS(g)
		if err != nil {
			return false
		}
		b, err := KP(g)
		if err != nil {
			return false
		}
		return a.Weight == b.Weight && len(a.Edges) == len(b.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStateHelpers(t *testing.T) {
	// Path 0–1–2–3 with weights 1, 3, 2: the first iteration picks edge 0
	// (nodes 0 and 1 both) and edge 2 (nodes 2 and 3 both), the second
	// joins the halves over edge 1.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 2}})
	f := newFragments(g)
	f.run(1, func(int, int) { t.Fatal("a fragment below one node picked") })
	if f.count != 4 || f.depth != 0 || len(f.edges) != 0 {
		t.Fatalf("fresh state: %d fragments, depth %d, edges %v", f.count, f.depth, f.edges)
	}
	var charged [][2]int
	f.run(g.N(), func(frags, depth int) { charged = append(charged, [2]int{frags, depth}) })
	if want := [][2]int{{4, 0}, {2, 1}}; !reflect.DeepEqual(charged, want) {
		t.Fatalf("charged (fragments, depth) %v, want %v", charged, want)
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(f.edges, want) {
		t.Fatalf("edges %v, want %v: iteration by iteration, ascending within", f.edges, want)
	}
	if f.count != 1 || f.size[0] != 4 || f.depth != 3 {
		t.Fatalf("merged state: %d fragments, size %d, depth %d", f.count, f.size[0], f.depth)
	}
	for v, l := range f.label {
		if l != 0 {
			t.Fatalf("node %d labelled %d, want the smallest node ID 0", v, l)
		}
	}
}

func TestGHSNetworkMatchesKruskal(t *testing.T) {
	r := rngutil.NewRand(11)
	for _, g := range []*graph.Graph{
		graph.Ring(16),
		graph.Grid(4, 5),
		graph.RandomRegular(24, 4, r),
		graph.Star(12),
		graph.Lollipop(8, 6),
		graph.BinaryTree(15),
	} {
		g.AssignDistinctRandomWeights(r)
		res, err := GHSNetwork(g, rngutil.NewSource(12), congest.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesKruskal(t, g, res)
		if res.Rounds <= 0 {
			t.Fatal("no rounds measured")
		}
	}
}

func TestGHSNetworkWindowAccounting(t *testing.T) {
	r := rngutil.NewRand(13)
	g := graph.RandomRegular(32, 4, r)
	g.AssignDistinctRandomWeights(r)
	res, err := GHSNetwork(g, rngutil.NewSource(14), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Textbook synchronous Borůvka: ≤ log₂n+1 windows of 3n+6 rounds.
	window := 3*g.N() + 6
	if res.Iterations > log2int(g.N())+2 {
		t.Fatalf("%d iterations exceed log n budget", res.Iterations)
	}
	if res.Rounds > (log2int(g.N())+2)*window {
		t.Fatalf("rounds %d exceed textbook budget", res.Rounds)
	}
}

func TestGHSNetworkAgreesWithChargedModel(t *testing.T) {
	// The node-program execution and the charged-cost model must choose
	// the same spanning tree (identical weight and edge set).
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(20, 0.3, r)
		if err != nil {
			return true
		}
		g.AssignDistinctRandomWeights(r)
		a, err := GHSNetwork(g, rngutil.NewSource(seed), congest.Options{Workers: 1})
		if err != nil {
			return false
		}
		b, err := GHS(g)
		if err != nil {
			return false
		}
		return a.Weight == b.Weight && len(a.Edges) == len(b.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGHSNetworkRejectsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := GHSNetwork(g, rngutil.NewSource(15), congest.Options{Workers: 1}); err == nil {
		t.Fatal("disconnected accepted")
	}
}
