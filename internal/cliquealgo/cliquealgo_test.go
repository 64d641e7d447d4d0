package cliquealgo

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
)

type fixture struct {
	g *graph.Graph
	h *embed.Hierarchy
}

var shared = sync.OnceValues(func() (*fixture, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(48, 6, r)
	g.AssignDistinctRandomWeights(r)
	h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(2))
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

func TestCliqueMSTMatchesKruskal(t *testing.T) {
	f := testFixture(t)
	res, err := MST(f.h, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, want := mstbase.Kruskal(f.g)
	if res.Weight != want {
		t.Fatalf("clique MST weight %v, Kruskal %v", res.Weight, want)
	}
	if len(res.Edges) != f.g.N()-1 {
		t.Fatalf("%d edges, want %d", len(res.Edges), f.g.N()-1)
	}
}

func TestCliqueMSTRoundBudget(t *testing.T) {
	f := testFixture(t)
	res, err := MST(f.h, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Borůvka halves fragments each iteration: ≤ 3·⌈log₂ n⌉ clique rounds.
	logN := int(math.Ceil(math.Log2(float64(f.g.N()))))
	if res.CliqueRounds > 3*logN {
		t.Fatalf("clique rounds %d exceed 3·log n = %d", res.CliqueRounds, 3*logN)
	}
	if res.EmulatedRounds != res.CliqueRounds*res.PerCliqueRound {
		t.Fatal("emulated-round accounting inconsistent")
	}
	if res.PerCliqueRound <= 0 {
		t.Fatal("per-clique-round cost not positive")
	}
}

func TestCliqueMSTDeterministic(t *testing.T) {
	f := testFixture(t)
	a, err := MST(f.h, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MST(f.h, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight != b.Weight || a.EmulatedRounds != b.EmulatedRounds {
		t.Fatal("same seed, different run")
	}
}

func TestSumAggregate(t *testing.T) {
	f := testFixture(t)
	values := make([]float64, f.g.N())
	want := 0.0
	for v := range values {
		values[v] = float64(v * v)
		want += values[v]
	}
	got, res, err := SumAggregate(f.h, values, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum %v, want %v", got, want)
	}
	if res.CliqueRounds != 1 || res.EmulatedRounds != res.PerCliqueRound {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestSumAggregateRejectsBadLength(t *testing.T) {
	f := testFixture(t)
	if _, _, err := SumAggregate(f.h, []float64{1, 2}, 7); err == nil {
		t.Fatal("wrong value count accepted")
	}
}

// TestBaselineEdgesDeterministic pins the edge-order rule of the shared
// kernel: every run of every baseline on it reports the tree in the same
// order, GHS and the clique MST (both merge-all) in the very same one.
func TestBaselineEdgesDeterministic(t *testing.T) {
	f := testFixture(t)
	var ghs, kp, clique []int
	for run := 0; run < 20; run++ {
		a, err := mstbase.GHS(f.g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mstbase.KP(f.g)
		if err != nil {
			t.Fatal(err)
		}
		c, err := MST(f.h, 8)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			ghs, kp, clique = a.Edges, b.Edges, c.Edges
			continue
		}
		if !reflect.DeepEqual(a.Edges, ghs) || !reflect.DeepEqual(b.Edges, kp) || !reflect.DeepEqual(c.Edges, clique) {
			t.Fatalf("run %d reports its edges in another order than run 0", run)
		}
	}
	if !reflect.DeepEqual(ghs, clique) {
		t.Fatalf("GHS order %v, clique order %v", ghs, clique)
	}
}

// TestPropertyEveryBoruvkaMatchesKruskal: on random connected graphs with
// heavily duplicated weights, where only the edge-ID tie-break keeps the
// picks acyclic, the three kernel policies and the hierarchical algorithm
// all return exactly Kruskal's edge set.
func TestPropertyEveryBoruvkaMatchesKruskal(t *testing.T) {
	sorted := func(edges []int) []int {
		out := slices.Clone(edges)
		slices.Sort(out)
		return out
	}
	check := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(20, 0.3, r)
		if err != nil {
			return true
		}
		for id := range g.Edges() {
			g.SetWeight(id, float64(1+r.IntN(3)))
		}
		h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(seed))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		kruskal, _ := mstbase.Kruskal(g)
		want := sorted(kruskal)
		ghs, err1 := mstbase.GHS(g)
		kp, err2 := mstbase.KP(g)
		clique, err3 := MST(h, seed)
		hier, err4 := mst.Run(h, rngutil.NewSource(seed))
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Logf("seed %d: %v %v %v %v", seed, err1, err2, err3, err4)
			return false
		}
		for name, got := range map[string][]int{"GHS": ghs.Edges, "KP": kp.Edges, "clique": clique.Edges, "mst.Run": hier.Edges} {
			if !slices.Equal(sorted(got), want) {
				t.Logf("seed %d: %s chose %v, Kruskal %v", seed, name, sorted(got), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
