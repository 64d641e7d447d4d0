package cliquemu

import (
	"math"
	"sync"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var shared = sync.OnceValues(func() (*embed.Hierarchy, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(48, 6, r)
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	return embed.Build(g, p, rngutil.NewSource(3))
})

func testHierarchy(t *testing.T) *embed.Hierarchy {
	t.Helper()
	h, err := shared()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestAllToAllWorkload(t *testing.T) {
	g := graph.Ring(10)
	reqs := AllToAll(g)
	if len(reqs) != 90 {
		t.Fatalf("workload size %d, want 90", len(reqs))
	}
	perDest := make([]int, g.N())
	for _, r := range reqs {
		if r.SrcNode == r.DstNode {
			t.Fatal("self message generated")
		}
		if r.DstIndex < 0 || r.DstIndex >= g.Degree(r.DstNode) {
			t.Fatalf("invalid index %d", r.DstIndex)
		}
		perDest[r.DstNode]++
	}
	for v, c := range perDest {
		if c != 9 {
			t.Fatalf("node %d receives %d messages, want 9", v, c)
		}
	}
}

func TestHierarchicalDeliversAll(t *testing.T) {
	h := testHierarchy(t)
	res, err := Hierarchical(h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	n := h.Base.N()
	if res.Messages != n*(n-1) {
		t.Fatalf("delivered %d, want %d", res.Messages, n*(n-1))
	}
	if res.Rounds <= 0 || res.Phases < 1 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestDirectDeliversAll(t *testing.T) {
	g := graph.RandomRegular(32, 4, rngutil.NewRand(7))
	res, err := Direct(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 32*31 {
		t.Fatalf("delivered %d", res.Messages)
	}
	// Each node must receive n−1 messages over ≤ Δ edges: rounds are at
	// least (n−1)/Δ.
	if res.Rounds < 31/4 {
		t.Fatalf("rounds %d below trivial lower bound", res.Rounds)
	}
}

func TestDirectRejectsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Direct(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestDirectOnCompleteIsOneRound(t *testing.T) {
	res, err := Direct(graph.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("clique emulating itself took %d rounds", res.Rounds)
	}
}

func TestBoundsShapes(t *testing.T) {
	if !math.IsInf(CutLowerBound(10, 0), 1) {
		t.Fatal("zero expansion should give infinite bound")
	}
	if CutLowerBound(100, 2) != 25 {
		t.Fatalf("CutLowerBound = %v, want 25", CutLowerBound(100, 2))
	}
	// Balliu: min{1/p², np} — the np branch wins on sparse small graphs,
	// the 1/p² branch on large ones.
	if BalliuBound(100, 0.05) != 5 {
		t.Fatalf("BalliuBound np branch = %v, want 5", BalliuBound(100, 0.05))
	}
	if math.Abs(BalliuBound(10000, 0.05)-400) > 1e-9 {
		t.Fatalf("BalliuBound 1/p² branch = %v, want 400", BalliuBound(10000, 0.05))
	}
	// The paper's curve beats Balliu's in the regime 1/√n < p < 1 where
	// both branches of Balliu's bound are expensive.
	n, p := 1024, 0.1
	if PaperBound(n, p) >= BalliuBound(n, p) {
		t.Fatalf("paper curve %v not below Balliu %v at p=%v",
			PaperBound(n, p), BalliuBound(n, p), p)
	}
	if math.IsInf(PaperBound(10, 0.5), 1) || !math.IsInf(PaperBound(10, 0), 1) {
		t.Fatal("PaperBound edge cases wrong")
	}
}

func TestHierarchicalLedger(t *testing.T) {
	h := testHierarchy(t)
	res, err := Hierarchical(h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	led := res.Costs
	if led == nil {
		t.Fatal("Hierarchical left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != led.Total(cost.Root) {
		t.Fatalf("Rounds %d != ledger root %d", res.Rounds, led.Total(cost.Root))
	}
	// The grafted child is the phased-routing ledger root; its children
	// (one per phase) sum to the whole run.
	rows := led.Rows()
	sum := 0
	for _, r := range rows {
		if r.Depth == 1 && r.Path != "clique-emulation/route-phased" {
			t.Fatalf("unexpected ledger child %+v", r)
		}
		if r.Depth == 2 {
			sum += r.Rolled
		}
	}
	if sum != res.Rounds {
		t.Fatalf("phase spans sum %d != Rounds %d", sum, res.Rounds)
	}
}

func TestDirectLedger(t *testing.T) {
	g := graph.Ring(12)
	res, err := Direct(g)
	if err != nil {
		t.Fatal(err)
	}
	led := res.Costs
	if led == nil {
		t.Fatal("Direct left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != led.Total(cost.Root) {
		t.Fatalf("Rounds %d != ledger root %d", res.Rounds, led.Total(cost.Root))
	}
	sp := led.Child(cost.Root, "bfs-schedule")
	if sp == cost.None {
		t.Fatal("no bfs-schedule span")
	}
	if led.Total(sp) != res.Rounds {
		t.Fatalf("bfs-schedule span %d != Rounds %d", led.Total(sp), res.Rounds)
	}
}
