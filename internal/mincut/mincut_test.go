package mincut

import (
	"testing"
	"testing/quick"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/mst"
	"almostmix/internal/rngutil"
)

func TestStoerWagnerKnownCuts(t *testing.T) {
	r := rngutil.NewRand(1)
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"barbell", graph.Barbell(5, 0), 1},
		{"barbell-bridge", graph.Barbell(4, 3), 1},
		{"ring", graph.Ring(12), 2},
		{"complete", graph.Complete(7), 6},
		{"dumbbell3", graph.Dumbbell(12, 4, 3, r), 3},
		{"path", graph.Path(6), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			val, side, err := StoerWagner(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if val != tc.want {
				t.Fatalf("min cut %v, want %v", val, tc.want)
			}
			// The side must be a proper nontrivial cut of that value.
			cnt := 0
			for _, in := range side {
				if in {
					cnt++
				}
			}
			if cnt == 0 || cnt == tc.g.N() {
				t.Fatal("degenerate cut side")
			}
			if got := tc.g.CutSize(side); float64(got) != tc.want {
				t.Fatalf("side cut size %d, want %v", got, tc.want)
			}
		})
	}
}

func TestStoerWagnerErrors(t *testing.T) {
	if _, _, err := StoerWagner(graph.FromEdges(1, nil)); err == nil {
		t.Fatal("single node accepted")
	}
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, _, err := StoerWagner(g); err == nil {
		t.Fatal("disconnected accepted")
	}
}

func TestApproxFindsBridges(t *testing.T) {
	r := rngutil.NewRand(2)
	for _, g := range []*graph.Graph{
		graph.Barbell(6, 0),
		graph.Barbell(5, 4),
		graph.Lollipop(8, 5),
	} {
		res, err := Approx(g, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.CutSize != 1 {
			t.Fatalf("bridge cut found as %d, want 1", res.CutSize)
		}
		if got := g.CutSize(res.Side); got != 1 {
			t.Fatalf("reported side has cut %d", got)
		}
	}
}

func TestApproxOnPlantedCut(t *testing.T) {
	r := rngutil.NewRand(3)
	g := graph.Dumbbell(16, 4, 2, r)
	exact, _, err := StoerWagner(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Approx(g, 0, r) // default tree count
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.CutSize) < exact {
		t.Fatalf("approx %d below exact %v — impossible", res.CutSize, exact)
	}
	if float64(res.CutSize) > 2*exact {
		t.Fatalf("approx %d more than 2x exact %v", res.CutSize, exact)
	}
	if res.TreesUsed <= 0 {
		t.Fatal("TreesUsed not recorded")
	}
}

func TestApproxNeverBelowExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(20, 0.3, r)
		if err != nil {
			return true
		}
		exact, _, err := StoerWagner(g)
		if err != nil {
			return false
		}
		res, err := Approx(g, 6, r)
		if err != nil {
			return false
		}
		// A reported cut is an actual cut, so it cannot be lighter than
		// the true minimum, and the side must certify the value.
		return float64(res.CutSize) >= exact && g.CutSize(res.Side) == res.CutSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxRejectsDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := Approx(g, 2, rngutil.NewRand(4)); err == nil {
		t.Fatal("disconnected accepted")
	}
}

func TestBest1RespectingOnPath(t *testing.T) {
	// On a path, every tree edge removal is a cut of size 1.
	g := graph.Path(5)
	tree := []int{0, 1, 2, 3}
	cut, side := best1Respecting(g, tree)
	if cut != 1 {
		t.Fatalf("path 1-respecting cut %d, want 1", cut)
	}
	if g.CutSize(side) != 1 {
		t.Fatal("side does not certify the cut")
	}
}

func TestPackingCharge(t *testing.T) {
	// Fabricate an MST result whose ledger carries a 37-round algorithm span.
	led := cost.New("mst", "base rounds")
	led.Open("algorithm", "base rounds", 1)
	led.Charge(37)
	led.Close()
	led.Close()
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	per := &mst.Result{AlgorithmRounds: 37, Costs: led}
	res := &ApproxResult{TreesUsed: 5}

	pl, total := PackingCharge(res, per)
	if err := pl.Err(); err != nil {
		t.Fatal(err)
	}
	if total != 5*37 {
		t.Fatalf("charged %d, want %d", total, 5*37)
	}
	if pl.Total(cost.Root) != total {
		t.Fatalf("ledger root %d != returned total %d", pl.Total(cost.Root), total)
	}
	sp := pl.Child(cost.Root, "tree-packing")
	if sp == cost.None {
		t.Fatal("no tree-packing span")
	}
	if pl.Rolled(sp) != 5*37 || pl.Total(sp) != 37 {
		t.Fatalf("tree-packing span rolled=%d total=%d, want 185 and 37", pl.Rolled(sp), pl.Total(sp))
	}
	// The grafted subtree is a copy of the MST ledger's algorithm span.
	rows := pl.Rows()
	if len(rows) != 3 || rows[2].Path != "mincut-packing/tree-packing/algorithm" || rows[2].Self != 37 {
		t.Fatalf("tree-packing span does not graft the MST algorithm span: %+v", rows)
	}

	// Fallback: no ledger on the MST result still charges correctly.
	pl2, total2 := PackingCharge(&ApproxResult{TreesUsed: 3}, &mst.Result{AlgorithmRounds: 11})
	if err := pl2.Err(); err != nil {
		t.Fatal(err)
	}
	if total2 != 33 || pl2.Total(cost.Root) != 33 {
		t.Fatalf("fallback charged %d (root %d), want 33", total2, pl2.Total(cost.Root))
	}
}
