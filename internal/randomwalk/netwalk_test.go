package randomwalk

// Tests for the node-program walk workload: conservation invariants, and
// differential equivalence between the sequential and parallel simulator
// engines — the walk workload exercises heavy per-round traffic on every
// edge, the opposite load shape from GHS's sparse event-driven phases.

import (
	"fmt"
	"reflect"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func TestRunNetworkConservesTokens(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(5))
	counts := make([]int, g.N())
	total := 0
	for v := range counts {
		counts[v] = v % 3
		total += counts[v]
	}
	const steps = 12
	res, err := RunNetwork(g, counts, steps, rngutil.NewSource(5), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	arrived := 0
	for _, c := range res.ArrivedAt {
		arrived += c
	}
	if arrived != total {
		t.Fatalf("arrived %d tokens, started %d", arrived, total)
	}
	// Every token makes exactly steps hops on a graph with no isolated
	// nodes, and each hop is one message.
	if res.Messages != total*steps {
		t.Fatalf("messages = %d, want %d", res.Messages, total*steps)
	}
	if res.Rounds < steps {
		t.Fatalf("rounds = %d, below the contention-free floor %d", res.Rounds, steps)
	}
}

func TestRunNetworkZeroSteps(t *testing.T) {
	g := graph.Ring(8)
	counts := []int{2, 0, 0, 0, 0, 0, 0, 1}
	res, err := RunNetwork(g, counts, 0, rngutil.NewSource(1), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ArrivedAt, []int{2, 0, 0, 0, 0, 0, 0, 1}) {
		t.Fatalf("zero-step tokens moved: %v", res.ArrivedAt)
	}
	if res.Messages != 0 {
		t.Fatalf("zero-step walk sent %d messages", res.Messages)
	}
}

func TestRunNetworkDifferential(t *testing.T) {
	seeds := []uint64{2, 13, 31}
	if testing.Short() {
		seeds = seeds[:1] // keep the race-instrumented CI run fast
	}
	for _, seed := range seeds {
		g := graph.RandomRegular(96, 6, rngutil.NewRand(seed))
		counts := UniformCountTimesDegree(g, 1)
		const steps = 10
		ref, err := RunNetwork(g, counts, steps, rngutil.NewSource(seed), congest.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := RunNetwork(g, counts, steps, rngutil.NewSource(seed), congest.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if got.Rounds != ref.Rounds || got.Messages != ref.Messages ||
				!reflect.DeepEqual(got.ArrivedAt, ref.ArrivedAt) {
				t.Errorf("seed %d workers %d: (rounds=%d msgs=%d) diverges from sequential (rounds=%d msgs=%d)",
					seed, workers, got.Rounds, got.Messages, ref.Rounds, ref.Messages)
			}
		}
	}
}

// TestSteadyRoundsZeroAlloc is the walk programs' row of the engine's
// zero-alloc gate (congest.TestSteadyRoundsZeroAlloc holds the ticker
// rows): with steps far beyond the measured window every token is in
// flight throughout, so each round every node receives, draws, queues and
// sends. Sends copy records into the arena and a node's token pool is
// retained, so the one thing left that allocates is a pool doubling when a
// node's backlog sets a new record — at most a handful per node, ever (the
// pools start at the node's own token count and a backlog past 32 is
// vanishingly rare at 8 tokens per node), thinning out as the run ages.
// Measured on this input, both worker counts: 0.29–0.34 allocs/round over
// rounds 64–128, 0.24 over 256–512, 0.04 over 1024–2048 — against ≥ 2048
// per round for one allocation per message. The row gates the 256-round
// window: integer zero on the noise-floor scale with a factor two to
// spare, in just over a second.
func TestSteadyRoundsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RandomRegular(256, 8, rngutil.NewRand(17))
	counts := UniformCountTimesDegree(g, 1)
	const rounds, steps = 256, 1 << 20
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("walks/workers=%d", workers), func(t *testing.T) {
			per := congest.MeasureSteadyAllocs(func() *congest.Network {
				programs, _, _, _ := WalkPrograms(g, counts, nil, steps, nil)
				return congest.NewNetwork(g, programs, rngutil.NewSource(17)).SetWorkers(workers)
			}, rounds)
			if per >= congest.SteadyAllocNoiseFloor {
				t.Fatalf("steady walk round allocates: %.3f allocs/round, want 0 (< %.1f)", per, congest.SteadyAllocNoiseFloor)
			}
			t.Logf("%.3f allocs/round", per)
		})
	}
}
