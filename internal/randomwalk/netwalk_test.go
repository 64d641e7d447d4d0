package randomwalk

// Tests for the node-program walk workload: conservation invariants, and
// differential equivalence between the sequential and parallel simulator
// engines — the walk workload exercises heavy per-round traffic on every
// edge, the opposite load shape from GHS's sparse event-driven phases.

import (
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
