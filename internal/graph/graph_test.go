package graph

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"

	"almostmix/internal/rngutil"
)

// TestNewEmpty: a graph built from no edges has its n nodes, no edges,
// is valid and is not connected.
func TestNewEmpty(t *testing.T) {
	g := FromEdges(5, nil)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if g.IsConnected() {
		t.Fatal("5-node empty graph should not be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdge: the add callback Build hands to emit numbers edges in
// emission order and shows each from both endpoints.
func TestAddEdge(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1, W: 2.5}})
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} not visible from both endpoints")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge {0,2}")
	}
	if got := g.Edge(0).W; got != 2.5 {
		t.Fatalf("weight = %v, want 2.5", got)
	}
	if g.Other(0, 0) != 1 || g.Other(0, 1) != 0 {
		t.Fatal("Other endpoint wrong")
	}
}

// TestAddEdgePanics: the add callback rejects self-loops and endpoints
// outside [0, n).
func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		u, v int
	}{
		{"self-loop", 1, 1},
		{"out-of-range", 0, 7},
		{"negative", -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("add(%d,%d) did not panic", tc.u, tc.v)
				}
			}()
			FromEdges(3, []Edge{{U: tc.u, V: tc.v, W: 1}})
		})
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	if g.M() != 10 {
		t.Fatalf("ring(10) has %d edges, want 10", g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("node %d degree %d, want 2", v, g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("ring(10) diameter %d, want 5", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteAndStar(t *testing.T) {
	k := Complete(6)
	if k.M() != 15 {
		t.Fatalf("K6 has %d edges, want 15", k.M())
	}
	if d := k.Diameter(); d != 1 {
		t.Fatalf("K6 diameter %d, want 1", d)
	}
	s := Star(6)
	if s.M() != 5 || s.Diameter() != 2 || s.MaxDegree() != 5 {
		t.Fatalf("star(6): m=%d diam=%d Δ=%d", s.M(), s.Diameter(), s.MaxDegree())
	}
}

func TestTorusRegularity(t *testing.T) {
	g := Torus(4, 5)
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus(4,5): n=%d m=%d, want 20, 40", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d degree %d, want 4", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Fatal("torus disconnected")
	}
}

func TestGridCornersAndDiameter(t *testing.T) {
	g := Grid(3, 4)
	if g.Degree(0) != 2 {
		t.Fatalf("grid corner degree %d, want 2", g.Degree(0))
	}
	if d := g.Diameter(); d != 5 {
		t.Fatalf("grid(3,4) diameter %d, want 5", d)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Q4 diameter %d, want 4", d)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	if g.M() != 14 {
		t.Fatalf("tree edges %d, want 14", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("tree disconnected")
	}
	if d := g.Diameter(); d != 6 {
		t.Fatalf("complete binary tree on 15 nodes diameter %d, want 6", d)
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(8, 5)
	if g.N() != 13 {
		t.Fatalf("n=%d, want 13", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("lollipop disconnected")
	}
	// End of the path is 5 hops from the clique attachment, clique
	// itself has diameter 1.
	if d := g.Diameter(); d != 6 {
		t.Fatalf("lollipop diameter %d, want 6", d)
	}
}

func TestBarbellMinStructure(t *testing.T) {
	g := Barbell(5, 0)
	if g.N() != 10 {
		t.Fatalf("n=%d, want 10", g.N())
	}
	if g.M() != 2*10+1 {
		t.Fatalf("m=%d, want 21", g.M())
	}
	// The bridge is the only crossing edge.
	inS := make([]bool, g.N())
	for v := 0; v < 5; v++ {
		inS[v] = true
	}
	if cut := g.CutSize(inS); cut != 1 {
		t.Fatalf("barbell cut %d, want 1", cut)
	}

	g2 := Barbell(4, 3)
	if g2.N() != 11 || !g2.IsConnected() {
		t.Fatalf("barbell(4,3): n=%d connected=%v", g2.N(), g2.IsConnected())
	}
}

func TestRandomRegular(t *testing.T) {
	r := rngutil.NewRand(1)
	for _, tc := range []struct{ n, d int }{{10, 3}, {16, 4}, {50, 6}} {
		g := RandomRegular(tc.n, tc.d, r)
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d): node %d degree %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if !g.IsConnected() {
			t.Fatalf("RandomRegular(%d,%d) disconnected", tc.n, tc.d)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomRegularFingerprint pins the edge lists RandomRegular draws: 30
// seeds at each size, d = 8, hashed edge by edge in ID order. Every
// expander workload and every TCP shard rebuilds its graph from a seed,
// so a change to the generator's draws or its accept/reject rule must
// show here, not as a shifted figure downstream.
func TestRandomRegularFingerprint(t *testing.T) {
	want := map[int]uint64{
		32:   0x398b14ca079e80e5,
		48:   0x5632c8fcfc972bf5,
		256:  0x92f272f5ecdd5e15,
		1024: 0x692d476641354ded,
		2048: 0x8aaaa26c62d3151d,
	}
	for _, n := range []int{32, 48, 256, 1024, 2048} {
		h := fnv.New64a()
		var buf [8]byte
		for seed := range uint64(30) {
			for _, e := range RandomRegular(n, 8, rngutil.NewRand(seed)).Edges() {
				binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
				binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != want[n] {
			t.Errorf("RandomRegular(%d, 8) over 30 seeds: fingerprint %#x, want %#x", n, got, want[n])
		}
	}
}

func TestGnpDensity(t *testing.T) {
	r := rngutil.NewRand(2)
	n, p := 200, 0.1
	g := Gnp(n, p, r)
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("G(%d,%g) has %v edges, want about %v", n, p, got, want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGnpExtremes(t *testing.T) {
	r := rngutil.NewRand(3)
	if g := Gnp(10, 0, r); g.M() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	if g := Gnp(10, 1, r); g.M() != 45 {
		t.Fatal("G(n,1) is not complete")
	}
}

func TestConnectedGnp(t *testing.T) {
	r := rngutil.NewRand(4)
	g, err := ConnectedGnp(64, 0.15, r)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("ConnectedGnp returned disconnected graph")
	}
	if _, err := ConnectedGnp(50, 0.001, r); err == nil {
		t.Fatal("expected failure for sub-threshold p")
	}
}

func TestWattsStrogatz(t *testing.T) {
	r := rngutil.NewRand(5)
	g := WattsStrogatz(100, 3, 0.2, r)
	if g.N() != 100 {
		t.Fatalf("n=%d", g.N())
	}
	// Rewiring only ever moves edges; duplicates are skipped, so m <= nk.
	if g.M() > 300 {
		t.Fatalf("m=%d > nk=300", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWattsStrogatzDeterministic: two builds from one seed are the same
// graph edge ID for edge ID.
func TestWattsStrogatzDeterministic(t *testing.T) {
	a := WattsStrogatz(100, 3, 0.2, rngutil.NewRand(5))
	b := WattsStrogatz(100, 3, 0.2, rngutil.NewRand(5))
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("two builds from one seed differ in their edge lists")
	}
}

func TestDumbbellBridges(t *testing.T) {
	r := rngutil.NewRand(6)
	g := Dumbbell(20, 4, 3, r)
	if g.N() != 40 {
		t.Fatalf("n=%d, want 40", g.N())
	}
	inS := make([]bool, 40)
	for v := 0; v < 20; v++ {
		inS[v] = true
	}
	if cut := g.CutSize(inS); cut != 3 {
		t.Fatalf("dumbbell cut %d, want 3", cut)
	}
}

func TestDistinctRandomWeights(t *testing.T) {
	r := rngutil.NewRand(7)
	g := Complete(12)
	g.AssignDistinctRandomWeights(r)
	seen := make(map[float64]bool, g.M())
	for _, e := range g.Edges() {
		if seen[e.W] {
			t.Fatalf("duplicate weight %v", e.W)
		}
		seen[e.W] = true
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	g.SetWeight(0, 42)
	if c.Edge(0).W == 42 {
		t.Fatal("clone shares edge storage")
	}
	c.SetWeight(1, 7)
	if g.Edge(1).W == 7 || c.M() != 5 || c.Validate() != nil {
		t.Fatal("clone weights not independent of the original's")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(7, []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}})
	comps := g.Components()
	if len(comps) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("got %d components, want 4", len(comps))
	}
}

func TestBFSDistUnreachable(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1, W: 1}})
	dist := g.BFSDist(0)
	if dist[1] != 1 || dist[2] != -1 {
		t.Fatalf("dist=%v", dist)
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestBFSTreeAndPathTo(t *testing.T) {
	// Among equally short paths the first reached in Neighbors order wins:
	// on the 4-cycle 0–1–3–2–0 node 3 hangs under whichever of 1 and 2 the
	// source lists first.
	for _, first := range []int{1, 2} {
		c := FromEdges(4, []Edge{{U: 0, V: first, W: 1}, {U: 0, V: 3 - first, W: 1}, {U: 1, V: 3, W: 1}, {U: 2, V: 3, W: 1}})
		parent, via := c.BFSTree(0)
		if parent[3] != int32(first) || int(via[3]) != 1+first {
			t.Fatalf("first neighbor %d: node 3 under %d via edge %d", first, parent[3], via[3])
		}
	}

	// A lollipop plus an isolated node: every tree path is a shortest
	// path over real edges.
	lolli := Lollipop(5, 4)
	g := FromEdges(lolli.N()+1, lolli.Edges())
	isolated := lolli.N()
	for src := 0; src < lolli.N(); src++ {
		parent, via := g.BFSTree(src)
		dist := g.BFSDist(src)
		if parent[src] != int32(src) || via[src] != -1 {
			t.Fatalf("source %d: parent %d via %d", src, parent[src], via[src])
		}
		if parent[isolated] != -1 || via[isolated] != -1 || PathTo(parent, isolated) != nil {
			t.Fatalf("source %d reaches the isolated node", src)
		}
		for v := 0; v < lolli.N(); v++ {
			path := PathTo(parent, v)
			if len(path) != dist[v]+1 || path[0] != int32(src) || path[len(path)-1] != int32(v) {
				t.Fatalf("path %d→%d = %v, distance %d", src, v, path, dist[v])
			}
			if v == src {
				continue
			}
			if e := g.Edge(int(via[v])); g.Other(int(via[v]), v) != int(parent[v]) || (e.U != v && e.V != v) {
				t.Fatalf("node %d: via edge %d does not join it to parent %d", v, via[v], parent[v])
			}
		}
	}
}

// Property: every generated graph in a broad family satisfies Validate,
// and the handshake lemma holds.
func TestPropertyGeneratorsValid(t *testing.T) {
	f := func(seed uint64, which uint8, size uint8) bool {
		r := rngutil.NewRand(seed)
		n := 8 + int(size)%56
		var g *Graph
		switch which % 6 {
		case 0:
			g = Ring(n)
		case 1:
			g = Gnp(n, 0.3, r)
		case 2:
			if n%2 == 1 {
				n++
			}
			g = RandomRegular(n, 3, r)
		case 3:
			g = Lollipop(n/2+2, n/2)
		case 4:
			g = BinaryTree(n)
		case 5:
			g = Star(n)
		}
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		degSum := 0
		for v := 0; v < g.N(); v++ {
			degSum += g.Degree(v)
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: CutSize of the full set and the empty set is zero.
func TestPropertyCutExtremes(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g := Gnp(30, 0.2, r)
		empty := make([]bool, g.N())
		full := make([]bool, g.N())
		for i := range full {
			full[i] = true
		}
		return g.CutSize(empty) == 0 && g.CutSize(full) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMargulis(t *testing.T) {
	g := Margulis(6)
	if g.N() != 36 {
		t.Fatalf("n=%d, want 36", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("margulis disconnected")
	}
	if d := g.MaxDegree(); d > 8 {
		t.Fatalf("max degree %d > 8", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expansion sanity: the 36-node Margulis graph should have much
	// better diameter than the 6x6 torus-equivalent path structure.
	if d := g.Diameter(); d > 6 {
		t.Fatalf("margulis(6) diameter %d, expected small", d)
	}
}

func TestMargulisPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Margulis(1) did not panic")
		}
	}()
	Margulis(1)
}
