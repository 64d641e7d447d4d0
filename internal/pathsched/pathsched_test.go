package pathsched

import (
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"almostmix/internal/graph"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func TestEmptyAndTrivial(t *testing.T) {
	res := Schedule(nil)
	if res.Makespan != 0 || res.Delivered != 0 {
		t.Fatalf("empty schedule: %+v", res)
	}
	res = Schedule([][]int32{{5}, {}, {7, 7, 7}})
	if res.Makespan != 0 || res.Delivered != 3 || res.Dilation != 0 {
		t.Fatalf("trivial paths: %+v", res)
	}
}

func TestSinglePath(t *testing.T) {
	res := Schedule([][]int32{{0, 1, 2, 3}})
	if res.Makespan != 3 || res.Congestion != 1 || res.Dilation != 3 {
		t.Fatalf("single path: %+v", res)
	}
}

func TestLazyStepsSkipped(t *testing.T) {
	res := Schedule([][]int32{{0, 0, 1, 1, 2}})
	if res.Makespan != 2 || res.Dilation != 2 {
		t.Fatalf("lazy path: %+v", res)
	}
}

func TestSharedLinkSerializes(t *testing.T) {
	// Three packets over the same directed edge: makespan = 3.
	paths := [][]int32{{0, 1}, {0, 1}, {0, 1}}
	res := Schedule(paths)
	if res.Makespan != 3 || res.Congestion != 3 || res.Dilation != 1 {
		t.Fatalf("shared link: %+v", res)
	}
}

func TestOppositeDirectionsDontCollide(t *testing.T) {
	res := Schedule([][]int32{{0, 1}, {1, 0}})
	if res.Makespan != 1 {
		t.Fatalf("opposite directions collided: %+v", res)
	}
}

func TestDisjointPathsParallel(t *testing.T) {
	paths := [][]int32{{0, 1, 2}, {10, 11, 12}, {20, 21, 22}}
	res := Schedule(paths)
	if res.Makespan != 2 {
		t.Fatalf("disjoint paths: %+v", res)
	}
}

func TestPipelineOnSharedPath(t *testing.T) {
	// k packets along the same length-L path pipeline: makespan = L+k−1.
	k, L := 4, 5
	path := make([]int32, L+1)
	for i := range path {
		path[i] = int32(i)
	}
	paths := make([][]int32, k)
	for i := range paths {
		paths[i] = path
	}
	res := Schedule(paths)
	if res.Makespan != L+k-1 {
		t.Fatalf("pipeline makespan %d, want %d", res.Makespan, L+k-1)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	r := rngutil.NewRand(3)
	g := graph.RandomRegular(32, 4, r)
	src := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, 2))
	walks := randomwalk.Run(g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: 15, Record: true}, r)
	paths, _, _ := walks.Paths(nil)
	a := Schedule(paths)
	b := Schedule(paths)
	if a != b {
		t.Fatalf("same input, different results: %+v vs %+v", a, b)
	}
}

// Property: makespan is bounded below by max(congestion, dilation) and
// above by congestion·dilation (trivially true for FIFO on fixed paths),
// and everything is delivered.
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g := graph.RandomRegular(24, 4, r)
		src := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, 1))
		walks := randomwalk.Run(g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: 10, Record: true}, r)
		paths, _, _ := walks.Paths(nil)
		res := Schedule(paths)
		if res.Delivered != len(paths) {
			return false
		}
		lower := res.Congestion
		if res.Dilation > lower {
			lower = res.Dilation
		}
		if res.Makespan < lower {
			return false
		}
		if res.Congestion > 0 && res.Makespan > res.Congestion*res.Dilation+1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	g := graph.Ring(6)
	adjacent := func(a, b int32) bool { return g.HasEdge(int(a), int(b)) }
	good := [][]int32{{0, 1, 2, 2, 3}}
	if err := Validate(good, adjacent); err != nil {
		t.Fatal(err)
	}
	bad := [][]int32{{0, 3}}
	if err := Validate(bad, adjacent); err == nil {
		t.Fatal("invalid path accepted")
	}
}

// genPaths builds a reproducible random path set: nPaths walks of varying
// length over an arbitrary node-ID space, with occasional lazy steps. The
// scheduler never consults a graph, so arbitrary ID sequences are valid
// inputs.
func genPaths(rng *rand.Rand, nNodes, nPaths, maxLen int) [][]int32 {
	paths := make([][]int32, nPaths)
	for i := range paths {
		hops := 1 + rng.IntN(maxLen)
		p := make([]int32, 0, hops+1)
		p = append(p, int32(rng.IntN(nNodes)))
		for len(p) <= hops {
			if rng.IntN(4) == 0 {
				p = append(p, p[len(p)-1]) // lazy step
			} else {
				p = append(p, int32(rng.IntN(nNodes)))
			}
		}
		paths[i] = p
	}
	return paths
}

func TestPropertyGeneratedPathSets(t *testing.T) {
	rng := rngutil.NewRand(99)
	for trial := 0; trial < 60; trial++ {
		nNodes := 2 + rng.IntN(40)
		paths := genPaths(rng, nNodes, rng.IntN(50), 12)
		res := Schedule(paths)
		if res.Delivered != len(paths) {
			t.Fatalf("trial %d: delivered %d of %d", trial, res.Delivered, len(paths))
		}
		lower := res.Congestion
		if res.Dilation > lower {
			lower = res.Dilation
		}
		if res.Makespan < lower {
			t.Fatalf("trial %d: makespan %d below max(congestion %d, dilation %d)",
				trial, res.Makespan, res.Congestion, res.Dilation)
		}
	}
}

func TestPropertyScheduleDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rngutil.NewRand(seed)
		paths := genPaths(rng, 2+rng.IntN(30), 1+rng.IntN(40), 10)
		first := Schedule(paths)
		for rep := 0; rep < 3; rep++ {
			if again := Schedule(paths); again != first {
				t.Fatalf("seed %d: run %d returned %+v, first run %+v", seed, rep, again, first)
			}
		}
	}
}

// refSchedule is the scheduler Schedule replaced, kept verbatim as the
// reference of the differential test: a compacted copy of every path and
// two Go maps keyed by the packed directed link.
func refSchedule(paths [][]int32) Result {
	linkKey := func(from, to int32) int64 {
		return int64(uint32(from))<<32 | int64(uint32(to))
	}
	hops := make([][]int32, len(paths)) // compacted paths (duplicates removed)
	res := Result{Delivered: len(paths)}
	traversals := make(map[int64]int)
	for i, p := range paths {
		compact := make([]int32, 0, len(p))
		for j, v := range p {
			if j == 0 || v != compact[len(compact)-1] {
				compact = append(compact, v)
			}
		}
		hops[i] = compact
		if len(compact)-1 > res.Dilation {
			res.Dilation = len(compact) - 1
		}
		for j := 1; j < len(compact); j++ {
			k := linkKey(compact[j-1], compact[j])
			traversals[k]++
			if traversals[k] > res.Congestion {
				res.Congestion = traversals[k]
			}
		}
	}

	// Synchronous FIFO store-and-forward: every round, each directed
	// link transmits the head-of-line packet.
	pos := make([]int, len(paths)) // next hop index (1-based into hops[i])
	queues := make(map[int64][]int32)
	remaining := 0
	for i, h := range hops {
		if len(h) <= 1 {
			continue
		}
		pos[i] = 1
		k := linkKey(h[0], h[1])
		queues[k] = append(queues[k], int32(i))
		remaining++
	}
	round := 0
	moved := make([]int32, 0, len(queues))
	for remaining > 0 {
		round++
		moved = moved[:0]
		for k, q := range queues {
			pkt := q[0]
			if len(q) == 1 {
				delete(queues, k)
			} else {
				queues[k] = q[1:]
			}
			moved = append(moved, pkt)
		}
		// Sort arrivals so queue order (and thus the makespan) does not
		// depend on map iteration order: runs are deterministic.
		slices.Sort(moved)
		for _, pkt := range moved {
			h := hops[pkt]
			pos[pkt]++
			if pos[pkt] >= len(h) {
				remaining--
				continue
			}
			k := linkKey(h[pos[pkt]-1], h[pos[pkt]])
			queues[k] = append(queues[k], pkt)
		}
	}
	res.Makespan = round
	return res
}

// adversarialPaths mixes the shapes the scheduler special-cases — empty,
// single-node and all-lazy paths (delivered at time zero), packets queueing
// on one link, packets crossing one edge in opposite directions — into a
// random path set over few nodes, so links are shared heavily.
func adversarialPaths(rng *rand.Rand) [][]int32 {
	nNodes := 2 + rng.IntN(12)
	paths := genPaths(rng, nNodes, rng.IntN(40), 10)
	a, b := int32(rng.IntN(nNodes)), int32(rng.IntN(nNodes))
	for range rng.IntN(6) {
		var p []int32
		switch rng.IntN(6) {
		case 0: // empty
		case 1:
			p = []int32{a}
		case 2:
			p = []int32{a, a, a}
		case 3:
			p = []int32{a, b}
		case 4:
			p = []int32{b, a}
		case 5:
			p = []int32{a, b, b, a, a, b}
		}
		at := rng.IntN(len(paths) + 1)
		paths = slices.Insert(paths, at, p)
	}
	return paths
}

func TestScheduleMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		paths := adversarialPaths(rngutil.NewRand(seed))
		got, want := Schedule(paths), refSchedule(paths)
		if got != want {
			t.Logf("seed %d: %+v, reference %+v, paths %v", seed, got, want, paths)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The same on real walks, where thousands of hops share few links.
	r := rngutil.NewRand(11)
	g := graph.RandomRegular(16, 4, r)
	src := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, 8))
	paths, _, _ := randomwalk.Run(g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: 30, Record: true}, r).Paths(nil)
	if got, want := Schedule(paths), refSchedule(paths); got != want {
		t.Fatalf("walk paths: %+v, reference %+v", got, want)
	}
}

// bothWaysCopies is the construction ScheduleBothWays replaced, kept as
// its reference: every path followed by a reversed copy of it, so packet
// 2e runs forward along paths[e] and packet 2e+1 backward.
func bothWaysCopies(paths [][]int32) [][]int32 {
	out := make([][]int32, 0, 2*len(paths))
	for _, p := range paths {
		rev := slices.Clone(p)
		slices.Reverse(rev)
		out = append(out, p, rev)
	}
	return out
}

// layOnMultigraph builds a multigraph with an edge for every hop of paths,
// in shuffled order and either way round, so repeated hops become
// parallel edges, and returns it with the paths' link runs: each hop u→v
// as u's last port to v, the canonical half-edge Result.Paths records.
func layOnMultigraph(rng *rand.Rand, paths [][]int32) (*graph.Graph, [][]int32) {
	n := 1
	var edges []graph.Edge
	for _, p := range paths {
		for j, v := range p {
			n = max(n, int(v)+1)
			if j > 0 && v != p[j-1] {
				e := graph.Edge{U: int(p[j-1]), V: int(v), W: 1}
				if rng.IntN(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				edges = append(edges, e)
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := graph.FromEdges(n, edges)
	start, _ := g.CSR()
	runs := make([][]int32, len(paths))
	for e, p := range paths {
		for j := 1; j < len(p); j++ {
			if u, v := int(p[j-1]), int(p[j]); u != v {
				runs[e] = append(runs[e], start[u]+int32(g.Port(u, v)))
			}
		}
	}
	return g, runs
}

// TestScheduleBothWaysMatchesCopies: scheduling link runs both ways gives
// what the node-path door gives on every path followed by its reversed
// copy — on adversarial path sets laid on a multigraph of their own hops
// (lazy repeats, empty and single-node paths, links shared both ways),
// and on real walks with the runs their replay returns.
func TestScheduleBothWaysMatchesCopies(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rngutil.NewRand(seed)
		paths := adversarialPaths(rng)
		g, runs := layOnMultigraph(rng, paths)
		got, want := ScheduleBothWays(g, runs), Schedule(bothWaysCopies(paths))
		if got != want {
			t.Logf("seed %d: %+v, over reversed copies %+v, paths %v", seed, got, want, paths)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The same on real walks, whose lazy steps and shared links in both
	// directions are what overlay emulation schedules.
	r := rngutil.NewRand(12)
	g := graph.RandomRegular(16, 4, r)
	src := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, 4))
	paths, runs, _ := randomwalk.Run(g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: 30, Record: true}, r).Paths(nil)
	if got, want := ScheduleBothWays(g, runs), Schedule(bothWaysCopies(paths)); got != want {
		t.Fatalf("walk paths: %+v, over reversed copies %+v", got, want)
	}
}

// raceBuild is set in race-instrumented test binaries (race_test.go).
var raceBuild bool

// pathEnd ends a path in FuzzSchedule's byte form.
const pathEnd = 0xff

// encodePaths is the byte form FuzzSchedule decodes: the node-ID range
// minus two, then each path's node IDs, one byte each, every path ended by
// pathEnd.
func encodePaths(nNodes int, paths [][]int32) []byte {
	b := []byte{byte(nNodes - 2)}
	for _, p := range paths {
		for _, v := range p {
			b = append(b, byte(v))
		}
		b = append(b, pathEnd)
	}
	return b
}

// decodePaths reads encodePaths' form, taking node IDs modulo the range
// (2 to 33 nodes, so links are shared heavily); a path not ended by
// pathEnd is dropped.
func decodePaths(b []byte) [][]int32 {
	if len(b) == 0 {
		return nil
	}
	nNodes := 2 + int(b[0])%32
	var paths [][]int32
	p := []int32{}
	for _, c := range b[1:] {
		if c == pathEnd {
			paths = append(paths, p)
			p = []int32{}
			continue
		}
		p = append(p, int32(int(c)%nNodes))
	}
	return paths
}

// FuzzSchedule: on the path set a fuzz input encodes, Schedule gives what
// the reference gives, and so does ScheduleBothWays on the set laid on a
// multigraph of its own hops, against the reference over the paths and
// their reversed copies. The seeds are adversarial path sets and the
// hand-made shapes of the tests above.
func FuzzSchedule(f *testing.F) {
	for seed := range uint64(8) {
		rng := rngutil.NewRand(seed)
		f.Add(encodePaths(14, adversarialPaths(rng)))
	}
	f.Add(encodePaths(4, [][]int32{{0, 1}, {0, 1}, {0, 1}, {1, 0}, {2}, {}, {3, 3, 3}}))
	f.Add(encodePaths(6, [][]int32{{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {0, 0, 1, 1, 2}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		paths := decodePaths(b)
		if got, want := Schedule(paths), refSchedule(paths); got != want {
			t.Fatalf("Schedule %+v, reference %+v, paths %v", got, want, paths)
		}
		g, runs := layOnMultigraph(rngutil.NewRand(uint64(len(b))), paths)
		if got, want := ScheduleBothWays(g, runs), refSchedule(bothWaysCopies(paths)); got != want {
			t.Fatalf("ScheduleBothWays %+v, reference over reversed copies %+v, paths %v", got, want, paths)
		}
	})
}

func TestScheduleRejectsNegativeIDs(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "negative node id") {
			t.Fatalf("negative id: panic %q", msg)
		}
	}()
	Schedule([][]int32{{0, 1}, {2, -1}})
}

// scheduleAllocCeiling bounds the heap objects one call of each door
// allocates, whatever the number of paths and hops. A call takes its
// working set from the package's pool and hands it back, so a warm
// Schedule allocates nothing and a warm ScheduleBothWays only the pair
// table g.PairHalfedges builds (its two slices): the figures measured,
// with no slack, since they are exact counts. Under -race the runtime
// drops a quarter of what a sync.Pool is handed, so any call may start
// cold; there the ceiling is scheduleRaceCeiling, about a fifth above a
// cold call (9 and 8 measured: the workspace, its buffers, a doubling of
// the link table and the pool's own per-P array).
var (
	scheduleAllocCeiling = map[string]float64{"Schedule": 0, "ScheduleBothWays": 2}
	scheduleRaceCeiling  = map[string]float64{"Schedule": 11, "ScheduleBothWays": 10}
)

func TestScheduleAllocationsAreConstant(t *testing.T) {
	ceiling := scheduleAllocCeiling
	if raceBuild {
		ceiling = scheduleRaceCeiling
	}
	for _, nPaths := range []int{10, 1000} {
		rng := rngutil.NewRand(13)
		paths := genPaths(rng, 24, nPaths, 12)
		g, runs := layOnMultigraph(rng, paths)
		for name, schedule := range map[string]func(){
			"Schedule":         func() { Schedule(paths) },
			"ScheduleBothWays": func() { ScheduleBothWays(g, runs) },
		} {
			if allocs := testing.AllocsPerRun(5, schedule); allocs > ceiling[name] {
				t.Fatalf("%d paths: %v allocations per %s, ceiling %v", nPaths, allocs, name, ceiling[name])
			}
		}
	}
}

// TestScheduleCallsShareNothing: calls from one goroutine, which reuse
// one pooled workspace, each give what the reference gives, whatever ran
// before them. Each trial is a sequence of path sets of very different
// sizes and node-ID ranges — large (hundreds of paths over up to 10⁵ IDs,
// thousands of distinct links, so the link table doubles past its start),
// small (an adversarial set over a few nodes), a large set rejected for a
// negative node ID, then large, small and large again — each scheduled by
// both doors.
func TestScheduleCallsShareNothing(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rngutil.NewRand(seed)
		large := func() [][]int32 { return genPaths(rng, 2+rng.IntN(100_000), 300+rng.IntN(500), 12) }
		small := func() [][]int32 { return adversarialPaths(rng) }
		for call, gen := range []func() [][]int32{large, small, nil, large, small, large} {
			if gen == nil {
				bad := large()
				bad[len(bad)-1][0] = -1 - int32(rng.IntN(10))
				if msg := scheduleRefusal(bad); !strings.Contains(msg, "negative node id") {
					t.Logf("seed %d call %d: negative id: panic %q", seed, call, msg)
					return false
				}
				continue
			}
			paths := gen()
			if got, want := Schedule(paths), refSchedule(paths); got != want {
				t.Logf("seed %d call %d: Schedule %+v, reference %+v", seed, call, got, want)
				return false
			}
			g, runs := layOnMultigraph(rng, paths)
			if got, want := ScheduleBothWays(g, runs), refSchedule(bothWaysCopies(paths)); got != want {
				t.Logf("seed %d call %d: ScheduleBothWays %+v, reference %+v", seed, call, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// scheduleRefusal runs Schedule on paths and returns its panic message.
func scheduleRefusal(paths [][]int32) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	Schedule(paths)
	return ""
}

// TestScheduleConcurrentCalls runs both doors from eight goroutines at
// once, each on its own path set, and compares every result with the
// set's serial run: concurrent calls share no working memory.
func TestScheduleConcurrentCalls(t *testing.T) {
	const goroutines, calls = 8, 20
	type input struct {
		paths [][]int32
		g     *graph.Graph
		runs  [][]int32
		want  [2]Result
	}
	inputs := make([]input, goroutines)
	for i := range inputs {
		rng := rngutil.NewRand(uint64(40 + i))
		in := &inputs[i]
		in.paths = genPaths(rng, 2+rng.IntN(1_000), 10+rng.IntN(300), 12)
		in.g, in.runs = layOnMultigraph(rng, in.paths)
		in.want = [2]Result{Schedule(in.paths), ScheduleBothWays(in.g, in.runs)}
	}
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(in *input) {
			defer wg.Done()
			for range calls {
				if got := [2]Result{Schedule(in.paths), ScheduleBothWays(in.g, in.runs)}; got != in.want {
					t.Errorf("concurrent %+v, serial %+v", got, in.want)
					return
				}
			}
		}(&inputs[i])
	}
	wg.Wait()
}

// benchMakespan keeps the benchmarks' schedules from being optimised
// away.
var benchMakespan int

// BenchmarkSchedule times the node-path door in ns per hop. leaf is the
// router's leaf batch: 40 packets, about 50 hops, over a 384-node ID
// range of 48 parts of 8, each path one or two hops inside one part.
func BenchmarkSchedule(b *testing.B) {
	rng := rngutil.NewRand(5)
	paths := make([][]int32, 40)
	hops := 0
	for i := range paths {
		part := int32(8 * rng.IntN(48))
		p := []int32{part + int32(rng.IntN(8))}
		for range 1 + rng.IntN(4)/3 {
			v := part + int32(rng.IntN(7))
			if v >= p[len(p)-1] {
				v++
			}
			p = append(p, v)
			hops++
		}
		paths[i] = p
	}
	b.Run("leaf", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			benchMakespan = Schedule(paths).Makespan
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
	})
}

func BenchmarkScheduleBothWays(b *testing.B) {
	for _, bc := range []struct {
		name  string
		g     *graph.Graph
		walks int // per node
		steps int
		every int // keep every every-th walk
	}{
		{"cluster", graph.Lollipop(8, 2), 48, 40, 3},
		{"rr32d8", graph.RandomRegular(32, 8, rngutil.NewRand(1)), 64, 30, 3},
		{"long512", graph.Lollipop(48, 464), 1, 2048, 1},
	} {
		counts := make([]int, bc.g.N())
		for v := range counts {
			counts[v] = bc.walks
		}
		src := randomwalk.SourcesPerNode(counts)
		res := randomwalk.Run(bc.g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: bc.steps, Record: true}, rngutil.NewRand(2))
		var keep []int
		for i := 0; i < len(src); i += bc.every {
			keep = append(keep, i)
		}
		_, runs, _ := res.Paths(keep)
		hops := 0
		for _, run := range runs {
			hops += 2 * len(run)
		}
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				benchMakespan = ScheduleBothWays(bc.g, runs).Makespan
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/hop")
		})
	}
}
