package pathsched

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"almostmix/internal/cost"

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
	paths := walks.Paths(nil)
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
		paths := walks.Paths(nil)
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

func TestScheduleIntoChargesMakespan(t *testing.T) {
	paths := [][]int32{{0, 1, 2}, {3, 1, 2}, {4, 1, 2}}
	plain := Schedule(paths)

	led := cost.New("root", "rounds")
	sp := led.Open("leaf", "G2 rounds", 3)
	res := ScheduleInto(paths, sp)
	if res != plain {
		t.Fatalf("ScheduleInto result %+v differs from Schedule %+v", res, plain)
	}
	if sp.Total() != res.Makespan {
		t.Fatalf("span charged %d, makespan %d", sp.Total(), res.Makespan)
	}
	led.Close()
	if got := led.Close(); got != 3*res.Makespan {
		t.Fatalf("root total %d, want makespan×mul %d", got, 3*res.Makespan)
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}

	// A nil span only schedules.
	if res := ScheduleInto(paths, nil); res != plain {
		t.Fatalf("nil-span ScheduleInto result %+v differs from Schedule %+v", res, plain)
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
	paths := randomwalk.Run(g, src, randomwalk.Config{Kind: spectral.Lazy, Steps: 30, Record: true}, r).Paths(nil)
	if got, want := Schedule(paths), refSchedule(paths); got != want {
		t.Fatalf("walk paths: %+v, reference %+v", got, want)
	}
}

func TestScheduleRejectsNegativeIDs(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "negative node id") {
			t.Fatalf("negative id: panic %q", msg)
		}
	}()
	Schedule([][]int32{{0, 1}, {2, -1}})
}

// scheduleAllocCeiling bounds the heap objects one Schedule allocates,
// whatever the number of paths and hops: thirteen flat arrays, plus slack
// for the runtime's own allocations during the measurement.
const scheduleAllocCeiling = 15

func TestScheduleAllocationsAreConstant(t *testing.T) {
	for _, nPaths := range []int{10, 1000} {
		paths := genPaths(rngutil.NewRand(13), 24, nPaths, 12)
		allocs := testing.AllocsPerRun(5, func() { Schedule(paths) })
		if allocs > scheduleAllocCeiling {
			t.Fatalf("%d paths: %v allocations per Schedule, ceiling %d", nPaths, allocs, scheduleAllocCeiling)
		}
	}
}
