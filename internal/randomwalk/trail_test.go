package randomwalk

// Differential tests of the flat walk engine against the engine it
// replaced, kept here verbatim as the reference: per-walk path slices, a
// per-token transition switch, a per-step bucket rebuild for correlated
// walks and a map-keyed reverse replay. Both must make the same RNG draws
// in the same order and so agree on every path, endpoint and statistic.

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

type refResult struct {
	paths [][]int32
	ends  []int32
	stats Stats
}

func refRun(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *refResult {
	nWalks := len(sources)
	res := &refResult{ends: slices.Clone(sources), paths: make([][]int32, nWalks)}
	for i := range res.paths {
		res.paths[i] = []int32{sources[i]}
	}
	res.stats.PerStepMaxLoad = make([]int, cfg.Steps)
	delta := g.MaxDegree()
	edgeLoad := make([]int64, 2*g.M())
	tokensAt := make([]int32, g.N())
	for _, s := range sources {
		tokensAt[s]++
	}
	noteOccupancy := func() {
		for v, c := range tokensAt {
			if int(c) > res.stats.MaxTokensAtNode {
				res.stats.MaxTokensAtNode = int(c)
			}
			if d := g.Degree(v); d > 0 {
				if ratio := float64(c) / float64(d); ratio > res.stats.MaxTokensOverDegree {
					res.stats.MaxTokensOverDegree = ratio
				}
			}
		}
	}
	noteOccupancy()
	for step := 0; step < cfg.Steps; step++ {
		maxLoad := 0
		applyMove := func(i, v, next, edgeID int) {
			if next != v {
				dir := 0
				if g.Edge(edgeID).V == next {
					dir = 1
				}
				slot := 2*edgeID + dir
				edgeLoad[slot]++
				if int(edgeLoad[slot]) > maxLoad {
					maxLoad = int(edgeLoad[slot])
				}
				tokensAt[v]--
				tokensAt[next]++
				res.ends[i] = int32(next)
			}
			res.paths[i] = append(res.paths[i], int32(next))
		}
		if cfg.Correlated {
			refCorrelatedStep(g, cfg.Kind, res.ends, delta, rng, applyMove)
		} else {
			for i := 0; i < nWalks; i++ {
				v := int(res.ends[i])
				next, edgeID := refStepToken(g, cfg.Kind, v, delta, rng)
				applyMove(i, v, next, edgeID)
			}
		}
		if maxLoad == 0 {
			maxLoad = 1
		}
		res.stats.PerStepMaxLoad[step] = maxLoad
		res.stats.Rounds += maxLoad
		noteOccupancy()
		clear(edgeLoad)
	}
	return res
}

func refCorrelatedStep(g *graph.Graph, kind spectral.WalkKind, ends []int32, delta int,
	rng *rand.Rand, applyMove func(i, v, next, edgeID int)) {
	byNode := make([][]int32, g.N())
	for i, v := range ends {
		byNode[v] = append(byNode[v], int32(i))
	}
	for v, tokens := range byNode {
		if len(tokens) == 0 {
			continue
		}
		d := g.Degree(v)
		if d == 0 {
			for _, i := range tokens {
				applyMove(int(i), v, v, -1)
			}
			continue
		}
		var deckSize, stayCount int
		switch kind {
		case spectral.Lazy:
			deckSize, stayCount = 2*d, d
		case spectral.Regular:
			deckSize, stayCount = 2*delta, 2*delta-d
		}
		for i := len(tokens) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			tokens[i], tokens[j] = tokens[j], tokens[i]
		}
		offset := rng.IntN(deckSize)
		for j, tok := range tokens {
			slot := (offset + j) % deckSize
			if slot < stayCount {
				applyMove(int(tok), v, v, -1)
				continue
			}
			h := g.Neighbors(v)[slot-stayCount]
			applyMove(int(tok), v, h.To, h.EdgeID)
		}
	}
}

func refStepToken(g *graph.Graph, kind spectral.WalkKind, v, delta int, rng *rand.Rand) (next, edgeID int) {
	if g.Degree(v) == 0 {
		return v, -1
	}
	switch kind {
	case spectral.Lazy:
		if rng.Uint64()&1 == 0 {
			return v, -1
		}
		h := g.Neighbors(v)[rng.IntN(g.Degree(v))]
		return h.To, h.EdgeID
	default:
		r := rng.IntN(2 * delta)
		if r >= g.Degree(v) {
			return v, -1
		}
		h := g.Neighbors(v)[r]
		return h.To, h.EdgeID
	}
}

func refReverseDeliveryRounds(paths [][]int32, keep []int) int {
	if keep == nil {
		keep = make([]int, len(paths))
		for i := range keep {
			keep[i] = i
		}
	}
	if len(keep) == 0 {
		return 0
	}
	steps := 0
	for _, i := range keep {
		if len(paths[i])-1 > steps {
			steps = len(paths[i]) - 1
		}
	}
	edgeLoad := make(map[int64]int)
	rounds := 0
	for s := steps; s >= 1; s-- {
		clear(edgeLoad)
		maxLoad := 1
		for _, i := range keep {
			path := paths[i]
			if s >= len(path) {
				continue
			}
			from, to := path[s], path[s-1]
			if from == to {
				continue
			}
			key := int64(from)<<32 | int64(to)
			edgeLoad[key]++
			if edgeLoad[key] > maxLoad {
				maxLoad = edgeLoad[key]
			}
		}
		rounds += maxLoad
	}
	return rounds
}

// walkFixtures are the graph shapes the differential runs over: regular,
// uneven degrees, an isolated node (no draw), a multigraph whose parallel
// edges a reverse replay must merge, and one star per trail width past a
// byte — Δ = 299 keeps a uint16 trail, Δ = 69 999 a uint32 one, whose hub
// departures past offset 65 535 a narrower trail would garble.
func walkFixtures() map[string]*graph.Graph {
	withIsolated := graph.New(7)
	for v := 0; v < 5; v++ {
		withIsolated.AddEdge(v, (v+1)%6, 1)
	}
	multi := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 0}, {4, 0}} {
		multi.AddEdge(e[0], e[1], 1)
	}
	return map[string]*graph.Graph{
		"rr24d4":   graph.RandomRegular(24, 4, rngutil.NewRand(1)),
		"star9":    graph.Star(9),
		"isolated": withIsolated,
		"multi":    multi,
		"star300":  graph.Star(300),
		"hub70000": graph.Star(70_000),
	}
}

// fixtureSources starts three walks on each of the first 512 nodes: every
// node of the small fixtures, isolated ones included, and the hub and some
// leaves of the wide stars.
func fixtureSources(g *graph.Graph) []int32 {
	counts := make([]int, min(g.N(), 512))
	for v := range counts {
		counts[v] = 3
	}
	return SourcesPerNode(counts)
}

func TestRunMatchesReferenceEngine(t *testing.T) {
	for name, g := range walkFixtures() {
		sources := fixtureSources(g)
		for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
			for _, correlated := range []bool{false, true} {
				cfg := Config{Kind: kind, Steps: 17, Record: true, Correlated: correlated}
				refRng, rng := rngutil.NewRand(5), rngutil.NewRand(5)
				want := refRun(g, sources, cfg, refRng)
				got := Run(g, sources, cfg, rng)
				label := name + "/" + kind.String()
				if correlated {
					label += "/correlated"
				}
				if !slices.Equal(got.Ends, want.ends) {
					t.Fatalf("%s: ends differ", label)
				}
				if !reflect.DeepEqual(got.Stats, want.stats) {
					t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.stats)
				}
				if !reflect.DeepEqual(got.Paths(nil), want.paths) {
					t.Fatalf("%s: paths differ", label)
				}
				// Same number of draws: the streams are in the same state.
				if rng.Uint64() != refRng.Uint64() {
					t.Fatalf("%s: rng state diverged after the run", label)
				}
			}
		}
	}
}

func TestRecordDoesNotChangeTheWalk(t *testing.T) {
	g := graph.RandomRegular(32, 4, rngutil.NewRand(2))
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	for _, cfg := range []Config{
		{Kind: spectral.Lazy, Steps: 20},
		{Kind: spectral.Regular, Steps: 20},
		{Kind: spectral.Lazy, Steps: 20, Correlated: true},
	} {
		plain := Run(g, sources, cfg, rngutil.NewRand(3))
		cfg.Record = true
		recorded := Run(g, sources, cfg, rngutil.NewRand(3))
		if !slices.Equal(plain.Ends, recorded.Ends) || !reflect.DeepEqual(plain.Stats, recorded.Stats) {
			t.Fatalf("%+v: Record changed the endpoints or statistics", cfg)
		}
	}
}

func TestPathsGatherTheTrail(t *testing.T) {
	g := graph.RandomRegular(24, 4, rngutil.NewRand(4))
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	const steps = 15
	res := Run(g, sources, Config{Kind: spectral.Regular, Steps: steps, Record: true}, rngutil.NewRand(4))
	keep := []int{7, 0, len(sources) - 1, 7}
	paths := res.Paths(keep)
	if len(paths) != len(keep) {
		t.Fatalf("%d paths for %d kept walks", len(paths), len(keep))
	}
	for k, i := range keep {
		if !slices.Equal(paths[k], res.Path(i)) {
			t.Fatalf("Paths(keep)[%d] differs from Path(%d)", k, i)
		}
		if paths[k][0] != sources[i] || paths[k][steps] != res.Ends[i] {
			t.Fatalf("walk %d: path runs %d→%d, want %d→%d", i, paths[k][0], paths[k][steps], sources[i], res.Ends[i])
		}
	}
	// The paths share one arena; growing one must not overwrite the next.
	before := slices.Clone(paths[1])
	_ = append(paths[0], -1)
	if !slices.Equal(paths[1], before) {
		t.Fatal("appending to one gathered path overwrote its neighbor")
	}
	if len(res.Paths([]int{})) != 0 {
		t.Fatal("empty keep list gathered paths")
	}
}

func TestReverseDeliveryRoundsMatchesReference(t *testing.T) {
	for name, g := range walkFixtures() {
		sources := fixtureSources(g)
		res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: 12, Record: true}, rngutil.NewRand(6))
		paths := res.Paths(nil)
		subsets := map[string][]int{
			"all":    nil,
			"subset": {1, 4, 5, 9, len(sources) - 1},
			"empty":  {},
		}
		for label, keep := range subsets {
			if got, want := res.ReverseDeliveryRounds(keep), refReverseDeliveryRounds(paths, keep); got != want {
				t.Fatalf("%s/%s: reverse delivery %d rounds, reference %d", name, label, got, want)
			}
		}
	}
}

func TestPathsNeedRecord(t *testing.T) {
	res := Run(graph.Ring(5), []int32{0}, Config{Kind: spectral.Lazy, Steps: 3}, rngutil.NewRand(1))
	for name, call := range map[string]func(){
		"Path":                  func() { res.Path(0) },
		"Paths":                 func() { res.Paths(nil) },
		"ReverseDeliveryRounds": func() { res.ReverseDeliveryRounds(nil) },
	} {
		if msg := panicMessage(call); !strings.Contains(msg, "without Config.Record") {
			t.Fatalf("%s on an unrecorded run: panic %q", name, msg)
		}
	}
}

func TestTrailOverflowPanics(t *testing.T) {
	msg := panicMessage(func() {
		Run(graph.Ring(5), []int32{0, 1, 2}, Config{Kind: spectral.Lazy, Steps: math.MaxInt32 / 2, Record: true}, rngutil.NewRand(1))
	})
	if !strings.Contains(msg, "overflows int32 offsets") {
		t.Fatalf("oversized trail: panic %q", msg)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

func TestRunAllocationsAreConstant(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(7))
	rng := rngutil.NewRand(8)
	for _, cfg := range []Config{
		{Kind: spectral.Lazy, Steps: 20, Record: true},
		{Kind: spectral.Regular, Steps: 20, Record: true},
		{Kind: spectral.Lazy, Steps: 20, Record: true, Correlated: true},
	} {
		for _, k := range []int{1, 16} {
			sources := SourcesPerNode(UniformCountTimesDegree(g, k))
			allocs := testing.AllocsPerRun(5, func() { Run(g, sources, cfg, rng) })
			if allocs > RunAllocCeiling {
				t.Fatalf("%+v, k=%d: %v allocations per Run, ceiling %d", cfg, k, allocs, RunAllocCeiling)
			}
		}
	}
}

// TestRecordingRunBytes holds a recording Run to its trail — steps × walks
// × the trail's width — plus O(walks + n + m) for the endpoints, the
// sources' copy, the adjacency and the step scratch. A trail of node IDs,
// four bytes per walk per step, is several times over it.
func TestRecordingRunBytes(t *testing.T) {
	const steps = 40
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		width int
	}{
		{"rr64d6", graph.RandomRegular(64, 6, rngutil.NewRand(9)), 1},
		{"star300", graph.Star(300), 2},
	} {
		sources := SourcesPerNode(UniformCountTimesDegree(tc.g, 8))
		walks, n, m := len(sources), tc.g.N(), tc.g.M()
		budget := steps*walks*tc.width + 16*walks + 64*(n+m) + 8*steps + 4096
		for _, cfg := range []Config{
			{Kind: spectral.Lazy, Steps: steps, Record: true},
			{Kind: spectral.Regular, Steps: steps, Record: true},
			{Kind: spectral.Lazy, Steps: steps, Record: true, Correlated: true},
		} {
			rng := rngutil.NewRand(10)
			if got := bytesPerRun(func() { Run(tc.g, sources, cfg, rng) }); got > budget {
				t.Errorf("%s %+v: a recording Run of %d walks × %d steps allocates %d B, budget %d B",
					tc.name, cfg, walks, steps, got, budget)
			}
		}
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over a few calls.
func bytesPerRun(f func()) int {
	const runs = 4
	f() // warm up: lazily initialised runtime state is not f's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}
