package congest

// Golden pin of the trace collector's two export formats. One TraceSink
// observes a multi-run session: a fault-free run, the same faulty run
// twice under one label (so phase entries coalesce across runs), a run
// announced by hand with its own name (the analytic engines' path: label
// and run name joined), node counts that grow between runs, and a cost
// ledger. Its JSON and CSV exports are pinned byte for byte in
// testdata/sink/; any rework of the collector must reproduce both.
//
// Regenerate with `go test ./internal/congest -run GoldenTraceSink -update`
// ONLY when the -trace file format itself is deliberately changed.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// sinkSession drives the pinned session into a fresh sink.
func sinkSession(t *testing.T) *TraceSink {
	t.Helper()
	sink := NewTraceSink()
	run := func(label string, g *graph.Graph, faultSpec string, workers int) {
		net := NewUniformNetwork(g, func(v int) Program {
			return &goldenProgram{haltAt: 7 + v%4}
		}, rngutil.NewSource(17)).SetWorkers(workers).SetProbe(sink.Label(label))
		if faultSpec != "" {
			plan, err := faults.Parse(faultSpec, 5)
			if err != nil {
				t.Fatal(err)
			}
			net.SetFaults(plan)
		}
		if _, err := net.Run(30); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	run("clean", graph.Star(5), "", 1)
	faulty := graph.Gnp(9, 0.4, rngutil.NewRand(3))
	const spec = "drop=0.15,dup=0.1,delay=0.15:2,crash=3@3+2,sever=2@4"
	run("faulty", faulty, spec, 1)
	run("faulty", faulty, spec, 2)

	// A run announced by hand, like randomwalk.Run and route's recursion:
	// the label prefixes the announced name.
	sink.Label("manual")
	sink.RunStart(RunInfo{Name: "prep", Nodes: 3, Edges: 2})
	sink.PhaseMark(1, 1, "walk")
	sink.NodeHalted(2, 1)
	sink.RoundEnd(&RoundRecord{
		Round: 1, Delivered: 3, Active: 2, Halted: 1, MaxInbox: 2, MaxInboxNode: 1, MaxEdgeLoad: 2,
		InboxSizes: []int{1, 2, 0}, EdgeLoad: []int64{1, 0, 2, 0},
	})
	sink.RunEnd(1, nil)

	led := cost.New("demo", "base rounds")
	led.Open("prep", "base rounds", 1)
	led.Charge(3)
	led.Close()
	led.Open("recursion", "G0 rounds", 4)
	led.Charge(2)
	led.Close()
	led.Close()
	sink.AddCosts("route", led)
	sink.AddCosts("ignored", nil)
	return sink
}

func TestGoldenTraceSink(t *testing.T) {
	sink := sinkSession(t)
	for _, f := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"multirun-faulty.json", func(b *bytes.Buffer) error { return sink.WriteJSON(b) }},
		{"multirun-faulty.csv", func(b *bytes.Buffer) error { return sink.WriteCSV(b) }},
	} {
		var got bytes.Buffer
		if err := f.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "sink", f.name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to generate): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: the trace export diverges from the golden", path)
		}
	}
}
