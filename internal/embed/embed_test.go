package embed

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var buildShared = sync.OnceValues(func() (*Hierarchy, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(64, 6, r)
	p := DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	return Build(g, p, rngutil.NewSource(42))
})

// testHierarchy returns a two-level hierarchy on a small expander, built
// once and shared read-only across tests (construction is the expensive
// part).
func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := buildShared()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestVirtualMap(t *testing.T) {
	g := graph.Star(4) // degrees: 3,1,1,1
	vm := NewVirtualMap(g)
	if vm.Count() != 6 {
		t.Fatalf("count = %d, want 2m = 6", vm.Count())
	}
	if vm.DegreeOf(0) != 3 || vm.DegreeOf(2) != 1 {
		t.Fatal("DegreeOf wrong")
	}
	vid := vm.VID(0, 2)
	if vm.Owner(vid) != 0 || vm.IndexAtOwner(vid) != 2 {
		t.Fatal("VID round trip failed")
	}
	if vm.EncodedID(vid) != EncodeID(0, 2) {
		t.Fatal("EncodedID disagrees with EncodeID")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("VID out of range did not panic")
		}
	}()
	vm.VID(1, 1)
}

func TestResolveDefaults(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(2))
	r, err := DefaultParams().resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.beta < 4 || r.beta > 16 {
		t.Fatalf("beta = %d outside clamp", r.beta)
	}
	if r.levels < 1 {
		t.Fatal("levels < 1")
	}
	if r.degreeG0 > r.walksPerVNode {
		t.Fatal("degreeG0 exceeds walks")
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := DefaultParams().resolve(graph.New(1)); err == nil {
		t.Fatal("tiny graph accepted")
	}
	p := DefaultParams()
	p.DegreeG0C = 10
	p.WalksC = 1
	if _, err := p.resolve(graph.Ring(16)); err == nil {
		t.Fatal("degree > walks accepted")
	}
	p = DefaultParams()
	p.Beta = 1
	if _, err := p.resolve(graph.Ring(16)); err == nil {
		t.Fatal("beta=1 accepted")
	}
}

// A negative Params field is an error that names it. Unchecked, a negative
// SuccessMargin panicked in buildLevel, a negative TauMix built a hierarchy
// whose routing walks panicked, and a negative WalkLenFactor reported a
// WalkLen the G0 walks never ran.
func TestBuildRejectsNegativeParams(t *testing.T) {
	g := graph.RandomRegular(32, 8, rngutil.NewRand(3))
	for _, tc := range []struct {
		field string
		set   func(*Params)
	}{
		{"Beta", func(p *Params) { p.Beta = -4 }},
		{"WalksC", func(p *Params) { p.WalksC = -1 }},
		{"DegreeG0C", func(p *Params) { p.DegreeG0C = -1 }},
		{"WalkLenFactor", func(p *Params) { p.WalkLenFactor = -1 }},
		{"LeafSize", func(p *Params) { p.LeafSize = -1 }},
		{"TauMix", func(p *Params) { p.TauMix = -3 }},
		{"SuccessMargin", func(p *Params) { p.SuccessMargin = -1 }},
		{"SuccessMargin", func(p *Params) { p.SuccessMargin = math.NaN() }},
	} {
		p := DefaultParams()
		tc.set(&p)
		h, err := Build(g, p, rngutil.NewSource(1))
		if err == nil || !strings.Contains(err.Error(), "Params."+tc.field) {
			t.Errorf("%s: Build returned error %v (hierarchy %v), want one naming Params.%s", tc.field, err, h != nil, tc.field)
		}
	}
}

func TestResolvedWalkLenIsWalked(t *testing.T) {
	h := testHierarchy(t)
	for e, p := range h.G0.Paths {
		if len(p)-1 != h.Resolved.WalkLen {
			t.Fatalf("G0 edge %d: path of %d steps, Resolved.WalkLen %d", e, len(p)-1, h.Resolved.WalkLen)
		}
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(4, 5, 1)
	if _, err := Build(g, DefaultParams(), rngutil.NewSource(1)); err == nil {
		t.Fatal("disconnected base accepted")
	}
}

func TestHierarchyStructure(t *testing.T) {
	h := testHierarchy(t)
	if h.Levels < 2 {
		t.Fatalf("expected >= 2 levels with beta=4, got %d", h.Levels)
	}
	if h.VM.Count() != 2*h.Base.M() {
		t.Fatal("virtual node count != 2m")
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestG0Degrees(t *testing.T) {
	h := testHierarchy(t)
	// Every virtual node selected DegreeG0 out-neighbors, so total
	// edges = 2m·DegreeG0 and every node has degree >= DegreeG0.
	want := h.VM.Count() * h.Resolved.DegreeG0
	if h.G0.Graph.M() != want {
		t.Fatalf("G0 has %d edges, want %d", h.G0.Graph.M(), want)
	}
	for vid := 0; vid < h.VM.Count(); vid++ {
		if d := h.G0.Graph.Degree(vid); d < h.Resolved.DegreeG0 {
			t.Fatalf("vid %d has G0 degree %d < %d", vid, d, h.Resolved.DegreeG0)
		}
	}
	if !h.G0.Graph.IsConnected() {
		t.Fatal("G0 disconnected")
	}
}

func TestPartitionBalanceP1(t *testing.T) {
	h := testHierarchy(t)
	for l := 1; l <= h.Levels; l++ {
		sizes := h.Overlay(l).PartSizes()
		expected := float64(h.VM.Count()) / float64(intPow(h.Beta, l))
		for part, size := range sizes {
			if float64(size) < expected/4 || float64(size) > expected*4 {
				t.Fatalf("level %d part %d has %d nodes, expected ≈ %v", l, part, size, expected)
			}
		}
	}
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func TestPartsRefine(t *testing.T) {
	h := testHierarchy(t)
	for l := 2; l <= h.Levels; l++ {
		o, below := h.Overlay(l), h.Overlay(l-1)
		for vid := 0; vid < h.VM.Count(); vid++ {
			if o.PartOf[vid]/int32(h.Beta) != below.PartOf[vid] {
				t.Fatalf("level %d part of vid %d does not refine", l, vid)
			}
		}
	}
}

func TestPortalsComplete(t *testing.T) {
	h := testHierarchy(t)
	totalPairs := 0
	for l := 1; l <= h.Levels; l++ {
		pt := h.PortalsAt(l)
		totalPairs += h.VM.Count() * (h.Beta - 1)
		if pt.Missing > totalPairs/100 {
			t.Fatalf("level %d: %d missing portals", l, pt.Missing)
		}
	}
}

func TestPortalsPointIntoSiblings(t *testing.T) {
	h := testHierarchy(t)
	for l := 1; l <= h.Levels; l++ {
		o, below, pt := h.Overlay(l), h.Overlay(l-1), h.PortalsAt(l)
		for vid := int32(0); vid < int32(h.VM.Count()); vid += 7 {
			for j := 0; j < h.Beta; j++ {
				if int32(j) == o.Digit[vid] {
					continue
				}
				ref := pt.Get(vid, j)
				if ref.Portal < 0 {
					continue
				}
				if o.PartOf[ref.Portal] != o.PartOf[vid] {
					t.Fatalf("level %d portal of %d toward %d is outside own part", l, vid, j)
				}
				e := below.Graph.Edge(int(ref.CrossEdge))
				other := int32(e.U)
				if other == ref.Portal {
					other = int32(e.V)
				}
				if o.Digit[other] != int32(j) || below.PartOf[other] != below.PartOf[vid] {
					t.Fatalf("level %d cross edge of %d toward %d lands wrong (digit %d)",
						l, vid, j, o.Digit[other])
				}
			}
		}
	}
}

func TestEmulationCostsPositive(t *testing.T) {
	h := testHierarchy(t)
	if h.G0.EmulationRounds < 1 {
		t.Fatal("G0 emulation cost < 1")
	}
	prev := 1
	for l := 1; l <= h.Levels; l++ {
		cost := h.EmulationToG0(l)
		if cost < prev {
			t.Fatalf("emulation cost shrank at level %d: %d < %d", l, cost, prev)
		}
		prev = cost
	}
	if h.EmulationToBase(h.Levels) < h.EmulationToG0(h.Levels) {
		t.Fatal("base emulation below G0 emulation")
	}
	if h.ConstructionRoundsBase() <= 0 {
		t.Fatal("construction rounds not positive")
	}
}

func TestDigitsOfIDMatchesTables(t *testing.T) {
	h := testHierarchy(t)
	for vid := int32(0); vid < int32(h.VM.Count()); vid += 5 {
		digits := h.DigitsOfID(h.VM.EncodedID(vid))
		for l := 1; l <= h.Levels; l++ {
			if int32(digits[l-1]) != h.DigitAt(vid, l) {
				t.Fatalf("vid %d level %d digit mismatch", vid, l)
			}
		}
	}
}

func TestLeafPartsSmall(t *testing.T) {
	h := testHierarchy(t)
	for part, size := range h.Overlay(h.Levels).PartSizes() {
		if size > 4*h.Resolved.LeafSize {
			t.Fatalf("leaf part %d has %d nodes, leaf target %d", part, size, h.Resolved.LeafSize)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	r := rngutil.NewRand(5)
	g := graph.RandomRegular(32, 4, r)
	p := DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h1, err := Build(g, p, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Build(g, p, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if h1.G0.Graph.M() != h2.G0.Graph.M() {
		t.Fatal("same seed, different G0 size")
	}
	for e := 0; e < h1.G0.Graph.M(); e++ {
		if h1.G0.Graph.Edge(e) != h2.G0.Graph.Edge(e) {
			t.Fatal("same seed, different G0 edges")
		}
	}
}

func TestEdgePathOrientation(t *testing.T) {
	h := testHierarchy(t)
	e := 0
	edge := h.G0.Graph.Edge(e)
	fwd := h.G0.EdgePath(e, int32(edge.U))
	// Paths are physical: endpoints are the owners of the vids.
	if int(fwd[0]) != h.VM.Owner(int32(edge.U)) {
		t.Fatalf("forward path starts at %d, want owner of %d", fwd[0], edge.U)
	}
	rev := h.G0.EdgePath(e, int32(edge.V))
	if int(rev[0]) != h.VM.Owner(int32(edge.V)) {
		t.Fatal("reverse path starts wrong")
	}
	if len(fwd) != len(rev) {
		t.Fatal("orientations differ in length")
	}
}

func TestBuildErrorMentionsCause(t *testing.T) {
	// A ring has terrible expansion; with a tiny walk budget G0 will
	// either be fine (walks still mix: ring(8) is tiny) — so instead
	// check the disconnected-graph message is descriptive.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	_, err := Build(g, DefaultParams(), rngutil.NewSource(3))
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v, want mention of disconnection", err)
	}
}

// Property: hierarchy construction succeeds on random expanders across
// seeds and the full structural validation passes.
func TestPropertyBuildValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping property build in -short mode")
	}
	for seed := uint64(0); seed < 3; seed++ {
		r := rngutil.NewRand(seed)
		g := graph.RandomRegular(32, 6, r)
		p := DefaultParams()
		p.Beta = 4
		p.LeafSize = 12
		h, err := Build(g, p, rngutil.NewSource(seed+100))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBetaClampedToSqrtM(t *testing.T) {
	// A tiny graph cannot support β=16: resolve must clamp to √m.
	g := graph.RandomRegular(16, 4, rngutil.NewRand(7))
	p := DefaultParams()
	p.Beta = 64
	r, err := p.resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.beta*r.beta > 2*g.M() {
		t.Fatalf("beta %d not clamped for 2m=%d", r.beta, 2*g.M())
	}
}

func TestLevelsRespectMinPartRule(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(8))
	p := DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	r, err := p.resolve(g)
	if err != nil {
		t.Fatal(err)
	}
	// After r.levels splits the expected part size must still be at
	// least max(leafSize, 2β); one more split would drop below it.
	size := 2 * g.M()
	for l := 0; l < r.levels; l++ {
		size /= r.beta
	}
	if size < max(r.leafSize, 2*r.beta) {
		t.Fatalf("expected leaf size %d below the floor", size)
	}
}

func TestConstructionLedger(t *testing.T) {
	h := testHierarchy(t)
	led := h.Costs
	if led == nil {
		t.Fatal("Build left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	// Differential: the ledger's root total is the legacy per-overlay sum,
	// and ConstructionRoundsBase reads the ledger.
	if got, want := led.Root.Total(), h.constructionRoundsFromOverlays(); got != want {
		t.Fatalf("ledger total %d, per-overlay formula %d", got, want)
	}
	if h.ConstructionRoundsBase() != led.Root.Total() {
		t.Fatal("ConstructionRoundsBase does not read the ledger")
	}

	// Children sum to the parent: g0 and level spans carry exactly the
	// per-overlay construction costs, converted by their multipliers.
	g0 := led.Root.Child("g0")
	if g0 == nil {
		t.Fatal("no g0 span")
	}
	if g0.Total() != h.G0.ConstructionRounds {
		t.Fatalf("g0 span total %d, overlay %d", g0.Total(), h.G0.ConstructionRounds)
	}
	walks, replay := g0.Child("walks"), g0.Child("endpoint-replay")
	if walks == nil || replay == nil {
		t.Fatal("g0 span lacks walks/endpoint-replay children")
	}
	if walks.Total()+replay.Total() != g0.Total() {
		t.Fatalf("g0 children %d+%d != %d", walks.Total(), replay.Total(), g0.Total())
	}
	sum := g0.Rolled()
	for l := 1; l <= h.Levels; l++ {
		sp := led.Root.Child(fmt.Sprintf("level-%d", l))
		if sp == nil {
			t.Fatalf("no level-%d span", l)
		}
		if sp.Total() != h.Upper[l-1].ConstructionRounds {
			t.Fatalf("level-%d span total %d, overlay %d", l, sp.Total(), h.Upper[l-1].ConstructionRounds)
		}
		if want := h.Upper[l-1].ConstructionRounds * h.EmulationToBase(l-1); sp.Rolled() != want {
			t.Fatalf("level-%d rolled %d, want %d", l, sp.Rolled(), want)
		}
		sum += sp.Rolled()
	}
	if sum != led.Root.Total() {
		t.Fatalf("children sum %d != root total %d", sum, led.Root.Total())
	}

	// The emulation-factors span is informational: present, zero rolled.
	info := led.Root.Child("emulation-factors")
	if info == nil {
		t.Fatal("no emulation-factors span")
	}
	if info.Rolled() != 0 {
		t.Fatalf("informational span rolled %d, want 0", info.Rolled())
	}
	if got := info.Child("g0").Total(); got != h.G0.EmulationRounds {
		t.Fatalf("emulation-factors/g0 %d, want %d", got, h.G0.EmulationRounds)
	}
}
