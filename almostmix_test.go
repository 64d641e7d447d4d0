package almostmix

import (
	"sync"
	"testing"
)

// The root tests are integration tests: they drive the public facade
// end-to-end the way the examples and a downstream user would.

type fx struct {
	g *Graph
	h *Hierarchy
}

var sharedFx = sync.OnceValues(func() (*fx, error) {
	g := NewRandomRegular(64, 6, 1)
	g.AssignDistinctRandomWeights(NewRand(2))
	p := DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := BuildHierarchy(g, p, 3)
	if err != nil {
		return nil, err
	}
	return &fx{g: g, h: h}, nil
})

func fixture(t *testing.T) *fx {
	t.Helper()
	f, err := sharedFx()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return f
}

func TestEndToEndRouting(t *testing.T) {
	f := fixture(t)
	reqs := PermutationWorkload(f.g, 5)
	rep, err := Route(f.h, reqs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(reqs) {
		t.Fatalf("delivered %d of %d", rep.Delivered, len(reqs))
	}
	heavy := DegreeWorkload(f.g, 7)
	rep, err = RoutePhased(f.h, heavy, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(heavy) {
		t.Fatalf("phased delivered %d of %d", rep.Delivered, len(heavy))
	}
}

func TestEndToEndMSTAgreesWithAllAlgorithms(t *testing.T) {
	f := fixture(t)
	hier, err := MST(f.h, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, kw := MSTKruskal(f.g)
	ghs, err := MSTBaselineGHS(f.g)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := MSTBaselineKP(f.g)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Weight != kw || ghs.Weight != kw || kp.Weight != kw {
		t.Fatalf("weights disagree: hier=%v ghs=%v kp=%v kruskal=%v",
			hier.Weight, ghs.Weight, kp.Weight, kw)
	}
	if hier.Rounds <= 0 || ghs.Rounds <= 0 || kp.Rounds <= 0 {
		t.Fatal("non-positive round counts")
	}
}

func TestEndToEndClique(t *testing.T) {
	f := fixture(t)
	res, err := EmulateClique(f.h, 10)
	if err != nil {
		t.Fatal(err)
	}
	n := f.g.N()
	if res.Messages != n*(n-1) {
		t.Fatalf("clique delivered %d messages, want %d", res.Messages, n*(n-1))
	}
	direct, err := EmulateCliqueDirect(f.g)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Messages != n*(n-1) {
		t.Fatal("direct baseline incomplete")
	}
}

func TestEndToEndMinCut(t *testing.T) {
	g := NewBarbell(8, 2)
	exact, _, err := ExactMinCut(g)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := ApproxMinCut(g, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 1 || approx.CutSize != 1 {
		t.Fatalf("barbell cut: exact %v, approx %d, want 1", exact, approx.CutSize)
	}
}

func TestEndToEndSpectral(t *testing.T) {
	g := NewRing(16)
	exact, err := MixingTime(g, LazyWalk, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if exact <= 0 {
		t.Fatal("mixing time not positive")
	}
	if est := EstimateMixingTime(g, LazyWalk); est < exact {
		t.Fatalf("estimate %d below exact %d", est, exact)
	}
	if h := EdgeExpansion(g); h != 2.0/8.0 {
		t.Fatalf("h(C16) = %v, want 0.25", h)
	}
	if sweep := EdgeExpansionEstimate(g); sweep < 0.25 {
		t.Fatalf("sweep %v below exact", sweep)
	}
}

func TestGraphConstructors(t *testing.T) {
	if g := NewComplete(6); g.M() != 15 {
		t.Fatal("complete")
	}
	if g := NewTorus(3, 4); g.N() != 12 {
		t.Fatal("torus")
	}
	if g := NewHypercube(3); g.N() != 8 {
		t.Fatal("hypercube")
	}
	if g := NewLollipop(5, 5); g.N() != 10 {
		t.Fatal("lollipop")
	}
	if g := NewDumbbell(10, 4, 2, 12); g.N() != 20 {
		t.Fatal("dumbbell")
	}
	g, err := NewGnp(40, 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("gnp disconnected")
	}
}

func TestCliqueApplications(t *testing.T) {
	f := fixture(t)
	res, err := CliqueMST(f.h, 30)
	if err != nil {
		t.Fatal(err)
	}
	_, want := MSTKruskal(f.g)
	if res.Weight != want {
		t.Fatalf("clique MST weight %v, want %v", res.Weight, want)
	}
	values := make([]float64, f.g.N())
	sum := 0.0
	for v := range values {
		values[v] = float64(v)
		sum += values[v]
	}
	got, acct, err := CliqueSum(f.h, values, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got != sum || acct.CliqueRounds != 1 {
		t.Fatalf("clique sum %v (%+v), want %v", got, acct, sum)
	}
}

func TestNodeProgramGHS(t *testing.T) {
	f := fixture(t)
	res, err := MSTBaselineGHSNetwork(f.g, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, want := MSTKruskal(f.g)
	if res.Weight != want {
		t.Fatalf("node-program GHS weight %v, want %v", res.Weight, want)
	}
	charged, err := MSTBaselineGHS(f.g)
	if err != nil {
		t.Fatal(err)
	}
	// The fully-simulated execution pays the textbook Θ(n)-window costs,
	// so it is never cheaper than the charged O(fragment-depth) model.
	if res.Rounds < charged.Rounds {
		t.Fatalf("node-program rounds %d below charged model %d", res.Rounds, charged.Rounds)
	}
}

func TestMargulisExpanderIsGoodSubstrate(t *testing.T) {
	g := NewMargulis(8) // 64 nodes, degree <= 8
	if !g.IsConnected() {
		t.Fatal("margulis disconnected")
	}
	tau, err := MixingTime(g, LazyWalk, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ringTau, err := MixingTime(NewRing(64), LazyWalk, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tau*10 > ringTau {
		t.Fatalf("margulis τ=%d not far below ring τ=%d", tau, ringTau)
	}
	// The hierarchy must build and route on it.
	p := DefaultParams()
	p.TauMix = tau
	h, err := BuildHierarchy(g, p, 33)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Route(h, PermutationWorkload(g, 34), 35)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != g.N() {
		t.Fatalf("delivered %d of %d", rep.Delivered, g.N())
	}
}

func TestCostLedgerFacade(t *testing.T) {
	f := fixture(t)
	var led *CostLedger = f.h.Costs
	if led == nil {
		t.Fatal("hierarchy has no cost ledger")
	}
	if led.Total(CostRoot) != f.h.ConstructionRoundsBase() {
		t.Fatalf("ledger root %d != ConstructionRoundsBase %d",
			led.Total(CostRoot), f.h.ConstructionRoundsBase())
	}
	rows := led.Rows()
	var g0 *CostRow
	for i := range rows {
		if rows[i].Path == "construction/g0" {
			g0 = &rows[i]
		}
	}
	if g0 == nil {
		t.Fatalf("no construction/g0 row in %d ledger rows", len(rows))
	}
	if g0.Total != f.h.G0.ConstructionRounds {
		t.Fatalf("g0 row total %d != overlay %d", g0.Total, f.h.G0.ConstructionRounds)
	}

	rep, err := Route(f.h, PermutationWorkload(f.g, 7), 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Costs == nil || rep.Costs.Total(CostRoot) != rep.BaseRounds {
		t.Fatalf("route ledger does not carry BaseRounds %d", rep.BaseRounds)
	}
}
