package randomwalk

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func TestPathsAreWalks(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g := graph.RandomRegular(20, 4, r)
		sources := SourcesPerNode(UniformCountTimesDegree(g, 1))
		res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 12, Record: true}, r)
		paths, _, _ := res.Paths(nil)
		for _, path := range paths {
			if len(path) != 13 {
				return false
			}
			for i := 1; i < len(path); i++ {
				a, b := int(path[i-1]), int(path[i])
				if a != b && !g.HasEdge(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEndsMatchPaths(t *testing.T) {
	r := rngutil.NewRand(2)
	g := graph.Ring(10)
	sources := []int32{0, 3, 7}
	const steps = 20
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: steps, Record: true}, r)
	paths, _, _ := res.Paths(nil)
	for i, path := range paths {
		if len(path) != steps+1 {
			t.Fatalf("walk %d has %d entries, want %d", i, len(path), steps+1)
		}
		if path[0] != sources[i] {
			t.Fatalf("walk %d source %d, want %d", i, path[0], sources[i])
		}
		if path[steps] != res.Ends[i] {
			t.Fatalf("walk %d end mismatch: path %d vs ends %d", i, path[steps], res.Ends[i])
		}
	}
}

func TestLazyWalkConvergesToDegreeDistribution(t *testing.T) {
	// Star graph: lazy walk stationary mass at the center is 1/2.
	g := graph.Star(9)
	r := rngutil.NewRand(3)
	const walks = 4000
	sources := make([]int32, walks)
	for i := range sources {
		sources[i] = int32(1 + i%8) // start at leaves
	}
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 40}, r)
	atCenter := 0
	for _, e := range res.Ends {
		if e == 0 {
			atCenter++
		}
	}
	frac := float64(atCenter) / walks
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("fraction at center %v, want ≈ 0.5", frac)
	}
}

func TestRegularWalkConvergesToUniform(t *testing.T) {
	g := graph.Star(9)
	r := rngutil.NewRand(4)
	const walks = 9000
	sources := make([]int32, walks)
	res := Run(g, sources, Config{Kind: spectral.Regular, Steps: 400}, r)
	counts := make([]int, g.N())
	for _, e := range res.Ends {
		counts[e]++
	}
	want := float64(walks) / float64(g.N())
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.25*want {
			t.Fatalf("node %d has %d endpoints, want ≈ %v", v, c, want)
		}
	}
}

func TestLemma24Occupancy(t *testing.T) {
	// With k·d(v) walks per node, occupancy stays O(k·d(v) + log n).
	r := rngutil.NewRand(5)
	g := graph.RandomRegular(64, 4, r)
	k := 4
	sources := SourcesPerNode(UniformCountTimesDegree(g, k))
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 50}, r)
	bound := 4 * (k*4 + int(math.Log2(64))) // generous constant 4
	if res.Stats.MaxTokensAtNode > bound {
		t.Fatalf("max tokens at a node %d exceeds Lemma 2.4-style bound %d",
			res.Stats.MaxTokensAtNode, bound)
	}
}

func TestLemma25Rounds(t *testing.T) {
	// T steps of k·d(v) walks per node should cost O((k+log n)·T) rounds.
	r := rngutil.NewRand(6)
	g := graph.RandomRegular(64, 4, r)
	k, T := 3, 40
	sources := SourcesPerNode(UniformCountTimesDegree(g, k))
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: T}, r)
	bound := 4 * (k + int(math.Log2(64))) * T
	if res.Stats.Rounds > bound {
		t.Fatalf("measured rounds %d exceed Lemma 2.5-style bound %d", res.Stats.Rounds, bound)
	}
	if res.Stats.Rounds < T {
		t.Fatalf("rounds %d below %d steps", res.Stats.Rounds, T)
	}
	if len(res.Stats.PerStepMaxLoad) != T {
		t.Fatalf("per-step loads length %d, want %d", len(res.Stats.PerStepMaxLoad), T)
	}
}

func TestZeroStepsIsNoop(t *testing.T) {
	r := rngutil.NewRand(7)
	g := graph.Ring(5)
	res := Run(g, []int32{2}, Config{Kind: spectral.Lazy, Steps: 0, Record: true}, r)
	paths, _, reverseRounds := res.Paths(nil)
	if res.Stats.Rounds != 0 || res.Ends[0] != 2 || len(paths[0]) != 1 || reverseRounds != 0 {
		t.Fatalf("zero-step run mutated state: %+v", res)
	}
}

func TestSourcesPerNode(t *testing.T) {
	got := SourcesPerNode([]int{2, 0, 1})
	want := []int32{0, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestReverseDeliveryRounds(t *testing.T) {
	r := rngutil.NewRand(8)
	g := graph.RandomRegular(32, 4, r)
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 20, Record: true}, r)
	_, _, rev := res.Paths(nil)
	if rev <= 0 {
		t.Fatal("reverse delivery cost not positive")
	}
	// Reverse replays the same per-step loads, so costs match closely.
	if rev > 2*res.Stats.Rounds || res.Stats.Rounds > 2*rev {
		t.Fatalf("reverse cost %d far from forward cost %d", rev, res.Stats.Rounds)
	}
	// A subset costs no more than the full set.
	_, _, subset := res.Paths([]int{0, 1, 2})
	if subset > rev {
		t.Fatalf("subset reverse cost %d exceeds full cost %d", subset, rev)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Ring(16)
	mk := func() *Result {
		return Run(g, []int32{0, 4, 8}, Config{Kind: spectral.Lazy, Steps: 30, Record: true},
			rngutil.NewRand(99))
	}
	a, _, _ := mk().Paths(nil)
	b, _, _ := mk().Paths(nil)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatal("same seed produced different walks")
		}
	}
}

func TestCorrelatedMarginalDistribution(t *testing.T) {
	// A single correlated step from the star center must still move to
	// each leaf with probability 1/(2d) and stay with probability 1/2.
	g := graph.Star(5)
	stays, moves := 0, 0
	leaves := make([]int, g.N())
	for seed := uint64(0); seed < 4000; seed++ {
		r := rngutil.NewRand(seed)
		res := Run(g, []int32{0}, Config{Kind: spectral.Lazy, Steps: 1, Correlated: true}, r)
		if res.Ends[0] == 0 {
			stays++
		} else {
			moves++
			leaves[res.Ends[0]]++
		}
	}
	if stays < 1800 || stays > 2200 {
		t.Fatalf("stay count %d, want ≈ 2000", stays)
	}
	for leaf := 1; leaf < g.N(); leaf++ {
		if leaves[leaf] < 300 || leaves[leaf] > 700 {
			t.Fatalf("leaf %d got %d visits, want ≈ 500", leaf, leaves[leaf])
		}
	}
}

func TestCorrelatedReducesCongestion(t *testing.T) {
	// With k=1 (one walk per degree), the independent scheduler pays an
	// additive Θ(log n) per step while the correlated one keeps per-edge
	// load at ⌈tokens/deck⌉ — measured rounds/step must drop.
	r := rngutil.NewRand(9)
	g := graph.RandomRegular(128, 4, r)
	sources := SourcesPerNode(UniformCountTimesDegree(g, 1))
	T := 40
	ind := Run(g, sources, Config{Kind: spectral.Lazy, Steps: T}, rngutil.NewRand(10))
	cor := Run(g, sources, Config{Kind: spectral.Lazy, Steps: T, Correlated: true}, rngutil.NewRand(10))
	if cor.Stats.Rounds >= ind.Stats.Rounds {
		t.Fatalf("correlated %d rounds not below independent %d", cor.Stats.Rounds, ind.Stats.Rounds)
	}
	// Occupancy stays balanced as well.
	if cor.Stats.MaxTokensAtNode > ind.Stats.MaxTokensAtNode*2 {
		t.Fatalf("correlated occupancy %d far above independent %d",
			cor.Stats.MaxTokensAtNode, ind.Stats.MaxTokensAtNode)
	}
}

func TestCorrelatedConvergesToStationary(t *testing.T) {
	// Correlated walks must still mix to the degree distribution.
	g := graph.Star(9)
	r := rngutil.NewRand(11)
	const walks = 4000
	sources := make([]int32, walks)
	for i := range sources {
		sources[i] = int32(1 + i%8)
	}
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 40, Correlated: true}, r)
	atCenter := 0
	for _, e := range res.Ends {
		if e == 0 {
			atCenter++
		}
	}
	frac := float64(atCenter) / walks
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("correlated fraction at center %v, want ≈ 0.5", frac)
	}
}

// TestOccupancyRatioMatchesDivision pins noteOccupancy's cross-multiplied
// comparison against the float-division maximum it replaced, bit for bit:
// each case notes one node of the given tokens and degree per call, and
// MaxTokensOverDegree must be the largest float64(tokens)/float64(degree)
// over the nodes of non-zero degree.
func TestOccupancyRatioMatchesDivision(t *testing.T) {
	type node struct{ tokens, degree int32 }
	const big = math.MaxInt32
	check := func(name string, nodes []node) {
		t.Helper()
		st := &stepper{ratioDegree: 1}
		var stats Stats
		want, wantTokens := 0.0, 0
		for _, v := range nodes {
			st.start, st.tokensAt = []int32{0, v.degree}, []int32{v.tokens}
			st.noteOccupancy(&stats)
			wantTokens = max(wantTokens, int(v.tokens))
			if v.degree > 0 {
				want = max(want, float64(v.tokens)/float64(v.degree))
			}
		}
		if math.Float64bits(stats.MaxTokensOverDegree) != math.Float64bits(want) || stats.MaxTokensAtNode != wantTokens {
			t.Errorf("%s: max %v tokens/degree and %d tokens, division gives %v and %d",
				name, stats.MaxTokensOverDegree, stats.MaxTokensAtNode, want, wantTokens)
		}
	}
	for _, tc := range []struct {
		name  string
		nodes []node
	}{
		{"equal ratios", []node{{2, 4}, {3, 6}}},
		{"equal ratios, larger terms first", []node{{3, 6}, {2, 4}}},
		// Three ratios a few 10⁻¹⁹ apart, whose quotients round to one float.
		{"near-equal ratios, one quotient", []node{{big - 2, big - 1}, {big - 1, big}, {big - 3, big - 2}}},
		{"near-equal ratios, largest first", []node{{big - 1, big}, {big - 2, big - 1}}},
		{"near a third", []node{{1, 3}, {357913942, 1073741825}, {715827882, big}}},
		{"large counts", []node{{big, big}, {big, 1}, {big - 1, 1}, {1, big}}},
		{"large degree first", []node{{1, big}, {2, big}, {big, big - 1}}},
		{"no tokens", []node{{0, 5}, {0, 1}}},
		{"isolated node", []node{{7, 0}, {1, 2}}},
	} {
		check(tc.name, tc.nodes)
	}
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		nodes := make([]node, 1+r.IntN(8))
		for i := range nodes {
			nodes[i] = node{int32(r.Int64N(big + 1)), int32(r.Int64N(big + 1))}
		}
		check("random", nodes)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
