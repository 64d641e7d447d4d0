package randomwalk

// Differential tests of the walk engine against a reference kept apart
// from it. Independent walks: the reference steps each walk alone, start
// to end, through rngutil.Mix with an exact big-integer reduction, and
// only then tallies loads and occupancy step by step — so agreement also
// proves that the order walks and steps are visited in does not matter.
// Correlated walks: the reference is the engine the flat one replaced (a
// per-step bucket rebuild over a sequential stream); both must make the
// same RNG draws in the same order.

import (
	"math/big"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

type refResult struct {
	paths [][]int32 // nil for correlated walks
	ends  []int32
	stats Stats
}

// refHop is one walk's move in one step: the node it reached and the edge
// it crossed, or edge −1 when it stayed.
type refHop struct {
	to   int32
	edge int
}

func refRun(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *refResult {
	if cfg.Correlated {
		return refStats(g, sources, refCorrelated(g, sources, cfg, rng), false)
	}
	return refStats(g, sources, refIndependent(g, sources, cfg, rng), true)
}

// refIndependent walks every walk alone: hops[i][s] is walk i's move in
// step s+1, decided by draw Mix(key, i, s) of the one key taken from rng.
func refIndependent(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) [][]refHop {
	key := rng.Uint64()
	twoDelta := 2 * g.MaxDegree()
	hops := make([][]refHop, len(sources))
	for i, src := range sources {
		v := int(src)
		for s := 0; s < cfg.Steps; s++ {
			x := rngutil.Mix(key, uint64(i), uint64(s))
			port := -1
			switch {
			case cfg.Kind == spectral.Lazy && x%2 == 1:
				port = refMulShift(x, g.Degree(v))
			case cfg.Kind == spectral.Regular:
				port = refMulShift(x, twoDelta)
			}
			if port < 0 || port >= g.Degree(v) {
				hops[i] = append(hops[i], refHop{int32(v), -1})
				continue
			}
			h := g.Neighbors(v)[port]
			hops[i] = append(hops[i], refHop{h.To, h.EdgeID()})
			v = int(h.To)
		}
	}
	return hops
}

// refMulShift is ⌊x·k/2⁶⁴⌋ in exact integer arithmetic.
func refMulShift(x uint64, k int) int {
	p := new(big.Int).Mul(new(big.Int).SetUint64(x), big.NewInt(int64(k)))
	return int(p.Rsh(p, 64).Int64())
}

// refCorrelated steps all walks together with the sequential deck dealing.
func refCorrelated(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) [][]refHop {
	ends := slices.Clone(sources)
	hops := make([][]refHop, len(sources))
	for step := 0; step < cfg.Steps; step++ {
		refCorrelatedStep(g, cfg.Kind, ends, g.MaxDegree(), rng, func(i, v, next, edgeID int) {
			hops[i] = append(hops[i], refHop{int32(next), edgeID})
			ends[i] = int32(next)
		})
	}
	return hops
}

// refStats replays the hops step by step for the paths, endpoints, loads
// and occupancy.
func refStats(g *graph.Graph, sources []int32, hops [][]refHop, keepPaths bool) *refResult {
	res := &refResult{ends: slices.Clone(sources)}
	steps := 0
	if len(hops) > 0 {
		steps = len(hops[0])
	}
	if keepPaths {
		res.paths = make([][]int32, len(sources))
		for i, s := range sources {
			res.paths[i] = []int32{s}
		}
	}
	res.stats.PerStepMaxLoad = make([]int, steps)
	edgeLoad := make(map[int]int)
	tokensAt := make([]int32, g.N())
	for _, s := range sources {
		tokensAt[s]++
	}
	noteOccupancy := func() {
		for v, c := range tokensAt {
			res.stats.MaxTokensAtNode = max(res.stats.MaxTokensAtNode, int(c))
			if d := g.Degree(v); d > 0 {
				res.stats.MaxTokensOverDegree = max(res.stats.MaxTokensOverDegree, float64(c)/float64(d))
			}
		}
	}
	noteOccupancy()
	for step := 0; step < steps; step++ {
		maxLoad := 1
		clear(edgeLoad)
		for i, walk := range hops {
			h, v := walk[step], res.ends[i]
			if h.edge >= 0 {
				dir := 0
				if int32(g.Edge(h.edge).V) == h.to {
					dir = 1
				}
				slot := 2*h.edge + dir
				edgeLoad[slot]++
				maxLoad = max(maxLoad, edgeLoad[slot])
				tokensAt[v]--
				tokensAt[h.to]++
				res.ends[i] = h.to
			}
			if keepPaths {
				res.paths[i] = append(res.paths[i], h.to)
			}
		}
		res.stats.PerStepMaxLoad[step] = maxLoad
		res.stats.Rounds += maxLoad
		noteOccupancy()
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
			applyMove(int(tok), v, int(h.To), h.EdgeID())
		}
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
// uneven degrees, an isolated node (no move), a multigraph whose parallel
// edges a reverse replay must merge, and two stars whose hubs reduce draws
// past port offsets 255 (Δ = 299) and 65 535 (Δ = 69 999).
func walkFixtures() map[string]*graph.Graph {
	withIsolated := graph.Build(7, func(add func(u, v int, w float64)) {
		for v := 0; v < 5; v++ {
			add(v, (v+1)%6, 1)
		}
	})
	multi := graph.Build(5, func(add func(u, v int, w float64)) {
		for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 0}, {4, 0}} {
			add(e[0], e[1], 1)
		}
	})
	return map[string]*graph.Graph{
		"rr24d4":   graph.RandomRegular(24, 4, rngutil.NewRand(1)),
		"star9":    graph.Star(9),
		"isolated": withIsolated,
		"multi":    multi,
		"star300":  graph.Star(300),
		"hub70000": graph.Star(70_000),
	}
}

// fixtureSources starts three walks on each of the first 512 nodes — every
// node of the small fixtures, isolated ones included, and the hub and
// some leaves of the wide stars — and 64 on node 0, so a star's hub sends
// walks over many ports.
func fixtureSources(g *graph.Graph) []int32 {
	counts := make([]int, min(g.N(), 512))
	for v := range counts {
		counts[v] = 3
	}
	counts[0] = 64
	return SourcesPerNode(counts)
}

// TestRunMatchesReferenceEngine runs every fixture through each step —
// the touched-list and the dense independent step, whichever Run would
// pick for the fixture, and the correlated one.
func TestRunMatchesReferenceEngine(t *testing.T) {
	// wide[name] is a port offset the hub must be seen crossing past.
	wide := map[string]int32{"star300": 255, "hub70000": 65_535}
	for name, g := range walkFixtures() {
		sources := fixtureSources(g)
		for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
			for _, step := range []string{"touched", "dense", "correlated"} {
				correlated := step == "correlated"
				cfg := Config{Kind: kind, Steps: 17, Record: !correlated, Correlated: correlated}
				refRng, rng := rngutil.NewRand(5), rngutil.NewRand(5)
				want := refRun(g, sources, cfg, refRng)
				got := run(g, sources, cfg, rng, step == "dense")
				label := name + "/" + kind.String() + "/" + step
				if !slices.Equal(got.Ends, want.ends) {
					t.Fatalf("%s: ends differ", label)
				}
				if !reflect.DeepEqual(got.Stats, want.stats) {
					t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.stats)
				}
				// Same number of draws: the streams are in the same state.
				if rng.Uint64() != refRng.Uint64() {
					t.Fatalf("%s: rng state diverged after the run", label)
				}
				if correlated {
					continue
				}
				paths, _, _ := got.Paths(nil)
				if !reflect.DeepEqual(paths, want.paths) {
					t.Fatalf("%s: paths differ", label)
				}
				// Star leaf v is the hub's port v−1.
				if limit, ok := wide[name]; ok && !slices.ContainsFunc(paths, func(p []int32) bool {
					return slices.Max(p)-1 > limit
				}) {
					t.Fatalf("%s: no walk left the hub past port offset %d", label, limit)
				}
			}
		}
	}
}

// TestTransitionsChiSquare: for each walk kind, the hops that walks make
// out of one node, pooled over every step, follow the kind's transition
// law. Node 0 has degree 9 in a graph of Δ = 13: a lazy walk stays with
// probability 1/2 and takes each port with 1/18; a 2Δ-regular one stays
// with 17/26 and takes each port with 1/26. With df = 9 the statistic
// exceeds 50 with probability ≈ 10⁻⁷ under the law, so a generic-seed
// failure indicates real bias, not noise.
func TestTransitionsChiSquare(t *testing.T) {
	const bound = 50.0
	g := graph.Build(22, func(add func(u, v int, w float64)) {
		add(0, 9, 1)
		for v := 1; v <= 8; v++ {
			add(0, v, 1)
		}
		for v := 10; v <= 21; v++ {
			add(9, v, 1)
		}
	})
	const deg = 9
	sources := make([]int32, 2000) // all at node 0
	for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
		stay, port := 0.5, 1.0/18
		if kind == spectral.Regular {
			stay, port = 17.0/26, 1.0/26
		}
		f := func(seed uint64) bool {
			res := Run(g, sources, Config{Kind: kind, Steps: 8, Record: true}, rngutil.NewRand(seed))
			counts := make([]float64, deg+1) // counts[deg] = stayed
			paths, _, _ := res.Paths(nil)
			for _, p := range paths {
				for s := 1; s < len(p); s++ {
					if p[s-1] != 0 {
						continue
					}
					if p[s] == 0 {
						counts[deg]++
					} else {
						counts[g.Port(0, int(p[s]))]++
					}
				}
			}
			total := 0.0
			for _, c := range counts {
				total += c
			}
			chi2 := 0.0
			for b, c := range counts {
				exp := total * port
				if b == deg {
					exp = total * stay
				}
				d := c - exp
				chi2 += d * d / exp
			}
			return chi2 < bound
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestRecordDoesNotChangeTheWalk(t *testing.T) {
	g := graph.RandomRegular(32, 4, rngutil.NewRand(2))
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	for _, cfg := range []Config{
		{Kind: spectral.Lazy, Steps: 20},
		{Kind: spectral.Regular, Steps: 20},
	} {
		plain := Run(g, sources, cfg, rngutil.NewRand(3))
		cfg.Record = true
		recorded := Run(g, sources, cfg, rngutil.NewRand(3))
		if !slices.Equal(plain.Ends, recorded.Ends) || !reflect.DeepEqual(plain.Stats, recorded.Stats) {
			t.Fatalf("%+v: Record changed the endpoints or statistics", cfg)
		}
	}
}

// TestPathsRecomputeKeptWalks: a kept walk's path is the same whichever
// other walks are kept with it, in whatever order and however often.
func TestPathsRecomputeKeptWalks(t *testing.T) {
	g := graph.RandomRegular(24, 4, rngutil.NewRand(4))
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	const steps = 15
	for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
		res := Run(g, sources, Config{Kind: kind, Steps: steps, Record: true}, rngutil.NewRand(4))
		all, _, _ := res.Paths(nil)
		for i, p := range all {
			if p[0] != sources[i] || p[steps] != res.Ends[i] {
				t.Fatalf("%v walk %d: path runs %d→%d, want %d→%d", kind, i, p[0], p[steps], sources[i], res.Ends[i])
			}
		}
		f := func(seed uint64, size uint8) bool {
			r := rngutil.NewRand(seed)
			keep := make([]int, int(size)%40)
			for k := range keep {
				keep[k] = r.IntN(len(sources))
			}
			if len(keep) > 1 {
				keep[len(keep)-1] = keep[0] // at least one repeat
			}
			r.Shuffle(len(keep), func(a, b int) { keep[a], keep[b] = keep[b], keep[a] })
			paths, _, _ := res.Paths(keep)
			if len(paths) != len(keep) {
				return false
			}
			for k, i := range keep {
				if alone, _, _ := res.Paths([]int{i}); !slices.Equal(paths[k], all[i]) || !slices.Equal(alone[0], all[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// The paths share one arena; growing one must not overwrite the next.
		paths, _, _ := res.Paths([]int{7, 0, 7})
		before := slices.Clone(paths[1])
		_ = append(paths[0], -1)
		if !slices.Equal(paths[1], before) {
			t.Fatal("appending to one gathered path overwrote its neighbor")
		}
		if none, _, _ := res.Paths([]int{}); len(none) != 0 {
			t.Fatal("empty keep list gathered paths")
		}
	}
}

// TestReverseDeliveryRoundsMatchesReference: the reverse-delivery charge
// Paths returns equals the reference's, computed from the reference's own
// paths, on every fixture — parallel edges, an isolated node and the wide
// stars included — for both walk kinds, any keep list (a repeated walk
// loads its hops once per appearance) and a run of no steps. An empty keep
// list charges nothing. 20 steps span two replay blocks, and on the
// multigraph a keep list of 2¹⁶+1 entries shrinks the block to 15 steps.
func TestReverseDeliveryRoundsMatchesReference(t *testing.T) {
	for name, g := range walkFixtures() {
		sources := fixtureSources(g)
		for _, cfg := range []Config{
			{Kind: spectral.Lazy, Steps: 20, Record: true},
			{Kind: spectral.Regular, Steps: 20, Record: true},
			{Kind: spectral.Lazy, Steps: 0, Record: true},
		} {
			res := Run(g, sources, cfg, rngutil.NewRand(6))
			ref := refRun(g, sources, cfg, rngutil.NewRand(6))
			keeps := map[string][]int{
				"all":        nil,
				"subset":     {1, 4, 5, 9, len(sources) - 1},
				"empty":      {},
				"duplicated": {7, 0, 7},
			}
			if name == "multi" {
				wide := make([]int, 1<<16+1)
				for k := range wide {
					wide[k] = k % len(sources)
				}
				keeps["wide"] = wide
			}
			for label, keep := range keeps {
				_, _, got := res.Paths(keep)
				if want := refReverseDeliveryRounds(ref.paths, keep); got != want {
					t.Fatalf("%s %v steps=%d %s: reverse delivery %d rounds, reference %d",
						name, cfg.Kind, cfg.Steps, label, got, want)
				}
				if label == "empty" && got != 0 {
					t.Fatalf("%s %v steps=%d: an empty keep list charged %d rounds", name, cfg.Kind, cfg.Steps, got)
				}
			}
		}
	}
}

func TestPathsNeedRecord(t *testing.T) {
	res := Run(graph.Ring(5), []int32{0}, Config{Kind: spectral.Lazy, Steps: 3}, rngutil.NewRand(1))
	if msg := panicMessage(func() { res.Paths(nil) }); !strings.Contains(msg, "without Config.Record") {
		t.Fatalf("Paths on an unrecorded run: panic %q", msg)
	}
}

// TestCorrelatedRecordPanics: a correlated hop depends on every token at
// the node, so a correlated run has no per-walk paths to record.
func TestCorrelatedRecordPanics(t *testing.T) {
	msg := panicMessage(func() {
		Run(graph.Ring(5), []int32{0, 1}, Config{Kind: spectral.Lazy, Steps: 3, Record: true, Correlated: true}, rngutil.NewRand(1))
	})
	if !strings.Contains(msg, "Config.Record with Config.Correlated") {
		t.Fatalf("recording a correlated run: panic %q", msg)
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

// TestRunAllocationsAreConstant holds both steps to RunAllocCeiling: on
// rr(64, 6), k = 1 is 384 walks on 448 histogram slots (the touched-list
// step) and k = 16 is the dense step.
func TestRunAllocationsAreConstant(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(7))
	rng := rngutil.NewRand(8)
	for _, cfg := range []Config{
		{Kind: spectral.Lazy, Steps: 20, Record: true},
		{Kind: spectral.Regular, Steps: 20, Record: true},
		{Kind: spectral.Lazy, Steps: 20, Correlated: true},
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

// TestRecordingRunBytes holds a recording Run to O(walks + n + m) bytes:
// the endpoints and the sources' copy (eight bytes a walk), the edge loads
// and the step scratch — nothing per step beyond its load entry. A record
// of one byte per walk per step is several times over it.
func TestRecordingRunBytes(t *testing.T) {
	const steps = 40
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rr64d6", graph.RandomRegular(64, 6, rngutil.NewRand(9))},
		{"star300", graph.Star(300)},
	} {
		sources := SourcesPerNode(UniformCountTimesDegree(tc.g, 8))
		walks, n, m := len(sources), tc.g.N(), tc.g.M()
		budget := 12*walks + 32*(n+m) + 8*steps + 4096
		for _, cfg := range []Config{
			{Kind: spectral.Lazy, Steps: steps, Record: true},
			{Kind: spectral.Regular, Steps: steps, Record: true},
			{Kind: spectral.Lazy, Steps: steps, Correlated: true},
		} {
			rng := rngutil.NewRand(10)
			if got := bytesPerRun(func() { Run(tc.g, sources, cfg, rng) }); got > budget {
				t.Errorf("%s %+v: a Run of %d walks × %d steps allocates %d B, budget %d B",
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
