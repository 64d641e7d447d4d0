package mstbase

// Differential equivalence of the full-fidelity GHS node program across
// simulator engines: the tree, the measured rounds and the message total
// must be bit-identical between the sequential reference engine and the
// sharded parallel engine for every worker count. GHS is the most
// state-heavy program in the repo (five message types, event-driven
// phases, adoption waves), so it is the strongest single witness that the
// parallel engine preserves program semantics.

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// ghsTrace runs the GHS node program with the bundled trace sink attached
// and returns the exported JSON bytes.
func ghsTrace(t *testing.T, g *graph.Graph, seed uint64, workers int) ([]byte, *Result) {
	t.Helper()
	sink := congest.NewTraceSink().Label("ghs")
	res, err := GHSNetwork(g, rngutil.NewSource(seed), congest.Options{Workers: workers, Probe: sink})
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestGHSNetworkDifferential(t *testing.T) {
	seeds := []uint64{3, 11, 29}
	if testing.Short() {
		seeds = seeds[:1] // keep the race-instrumented CI run fast
	}
	for _, seed := range seeds {
		r := rngutil.NewRand(seed)
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = graph.RandomRegular(32, 4, r)
		case 1:
			g = graph.Grid(6, 5)
		default:
			g = graph.Lollipop(12, 8)
		}
		g.AssignDistinctRandomWeights(r)

		refTrace, ref := ghsTrace(t, g, seed, 1)
		_, wantWeight := Kruskal(g)
		if ref.Weight != wantWeight {
			t.Fatalf("seed %d: sequential GHS weight %v, Kruskal %v", seed, ref.Weight, wantWeight)
		}
		refEdges := append([]int(nil), ref.Edges...)
		sort.Ints(refEdges)

		for _, workers := range []int{1, 2, 8} {
			gotTrace, got := ghsTrace(t, g, seed, workers)
			gotEdges := append([]int(nil), got.Edges...)
			sort.Ints(gotEdges)
			if got.Rounds != ref.Rounds || got.Weight != ref.Weight ||
				!reflect.DeepEqual(gotEdges, refEdges) {
				t.Errorf("seed %d workers %d: (rounds=%d weight=%v) diverges from sequential (rounds=%d weight=%v)",
					seed, workers, got.Rounds, got.Weight, ref.Rounds, ref.Weight)
			}
			// The exported trace is part of the measured results, so it
			// must be byte-identical across engines and worker counts.
			if !bytes.Equal(gotTrace, refTrace) {
				t.Errorf("seed %d workers %d: exported trace diverges from sequential (%d vs %d bytes)",
					seed, workers, len(gotTrace), len(refTrace))
			}
		}
	}
}
