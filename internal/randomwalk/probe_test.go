package randomwalk

// Tests of the probe integration: the analytic engine's trace must agree
// with its own Stats accounting, and the node-program walk's exported
// trace must be byte-identical across simulator worker counts.

import (
	"bytes"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// TestAnalyticTraceMatchesStats: randomwalk.Run emits one round record
// per walk step whose max_edge_load equals Stats.PerStepMaxLoad entry for
// entry — the -trace output of cmd/walks is the same quantity as the E4
// table's congestion column.
func TestAnalyticTraceMatchesStats(t *testing.T) {
	g := graph.RandomRegular(64, 4, rngutil.NewRand(9))
	sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
	trace := congest.NewTraceSink()
	const steps = 25
	res := Run(g, sources, Config{
		Kind:      spectral.Lazy,
		Steps:     steps,
		Probe:     trace,
		TraceName: "unit",
	}, rngutil.NewRand(9))

	if len(trace.Rounds) != steps {
		t.Fatalf("trace has %d samples, want %d", len(trace.Rounds), steps)
	}
	if len(res.Stats.PerStepMaxLoad) != steps {
		t.Fatalf("PerStepMaxLoad has %d entries, want %d", len(res.Stats.PerStepMaxLoad), steps)
	}
	maxTokens := 0
	for i, s := range trace.Rounds {
		if s.MaxEdgeLoad != int64(res.Stats.PerStepMaxLoad[i]) {
			t.Fatalf("step %d: trace max_edge_load %d != Stats.PerStepMaxLoad %d",
				i, s.MaxEdgeLoad, res.Stats.PerStepMaxLoad[i])
		}
		if s.Run != "unit" || s.Round != i+1 {
			t.Fatalf("sample %d mislabeled: %+v", i, s)
		}
		if s.Active != len(sources) {
			t.Fatalf("step %d: active %d, want the token count %d", i, s.Active, len(sources))
		}
		if s.MaxInbox > maxTokens {
			maxTokens = s.MaxInbox
		}
	}
	if maxTokens != res.Stats.MaxTokensAtNode {
		t.Fatalf("trace max inbox %d != Stats.MaxTokensAtNode %d",
			maxTokens, res.Stats.MaxTokensAtNode)
	}
}

// TestRunNetworkTraceIdenticalAcrossWorkers: attaching the bundled trace
// sink to the node-program walk must export byte-identical files for
// every engine/worker-count choice — traces are measured results and obey
// the same determinism contract as round counts.
func TestRunNetworkTraceIdenticalAcrossWorkers(t *testing.T) {
	g := graph.RandomRegular(48, 4, rngutil.NewRand(21))
	counts := UniformCountTimesDegree(g, 1)
	const steps = 8
	export := func(workers int) []byte {
		sink := congest.NewTraceSink().Label("walks")
		if _, err := RunNetwork(g, counts, steps, rngutil.NewSource(21), congest.Options{Workers: workers, Probe: sink}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := export(1)
	for _, workers := range []int{2, 8} {
		if got := export(workers); !bytes.Equal(got, want) {
			t.Errorf("workers %d: exported trace differs from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}
