// Command walks regenerates experiment E4 (Lemmas 2.4 and 2.5): running
// k·d_G(v) parallel random walks per node, it reports the measured
// per-node occupancy and the measured rounds per walk step against the
// O(k + log n) phase length the paper schedules. It also runs the walk
// workload as genuine node programs on the CONGEST simulator (every hop a
// real message, port contention queuing for rounds), on the engine
// selected by -workers.
package main

import (
	"flag"
	"fmt"
	"math"

	"almostmix/internal/cliutil"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

func main() {
	n := flag.Int("n", 256, "number of nodes of the random-regular base graph")
	d := flag.Int("d", 8, "degree of the base graph")
	steps := flag.Int("steps", 60, "walk steps T")
	seed := flag.Uint64("seed", 1, "root random seed")
	faultSpec := flag.String("faults", "", `run the E15 degradation sweep with this fault spec as its custom row, e.g. "drop=0.05,delay=0.1:3" (see DESIGN.md §3)`)
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection seed for -faults (independent of -seed)")
	attempts := flag.Int("attempts", 5, "max network runs per faulty execution before declaring tokens lost")
	cli := cliutil.NewHarness("walks", "write a per-round trace of every run to this file (.json for JSON, CSV otherwise)").WithBackend()
	flag.Parse()
	cliutil.Min("n", *n, 2)
	cliutil.Regular(*n, *d)
	cliutil.Min("steps", *steps, 0)
	cliutil.Min("attempts", *attempts, 1)
	cliutil.FaultSpec("faults", *faultSpec)
	cli.Run(func() error {
		g := graph.RandomRegular(*n, *d, rngutil.NewRand(*seed))
		if err := runE4(cli, g, *d, *steps, *seed); err != nil {
			return err
		}
		if *faultSpec == "" {
			return nil
		}
		return runE15(cli, g, *d, *steps, *seed, *faultSpec, *faultSeed, *attempts)
	})
}

// runE4 prints the analytic E4 table and the node-program E4b table for
// the same token loads.
func runE4(cli *cliutil.Harness, g *graph.Graph, d, steps int, seed uint64) error {
	n, tr := g.N(), cli.Transport()
	logN := math.Log2(float64(n))
	t := harness.NewTable(
		fmt.Sprintf("E4 — Lemmas 2.4/2.5: parallel walks on rr(n=%d, d=%d), T=%d", n, d, steps),
		"k", "walks", "max tokens/node", "occupancy bound k·d+log n", "rounds/step", "phase bound k+log n")
	for _, k := range []int{1, 2, 4, 8, 16} {
		sources := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, k))
		cfg := randomwalk.Config{
			Kind:  spectral.Lazy,
			Steps: steps,
			Probe: cli.Probe(fmt.Sprintf("E4 k=%d", k)),
		}
		stop := cli.Time(fmt.Sprintf("e4_analytic_k%d", k))
		res := randomwalk.Run(g, sources, cfg, rngutil.NewRand(seed+uint64(k)))
		stop()
		t.AddRow(k, len(sources),
			res.Stats.MaxTokensAtNode, float64(k*d)+logN,
			float64(res.Stats.Rounds)/float64(steps), float64(k)+logN)
	}
	fmt.Println(t)
	fmt.Println("Lemma 2.4 holds if max tokens/node is O(k·d + log n); Lemma 2.5 if")
	fmt.Println("rounds/step is O(k + log n). Constant factors near 1–4 are expected.")

	// Node-program tier: the same token load simulated message by message,
	// routed through the Transport interface so -transport=tcp runs it as
	// real processes. The makespan exceeds T by exactly the
	// port-contention queueing that Lemma 2.5's phases budget for.
	et := harness.NewTable(
		fmt.Sprintf("E4b — node-program walks on the CONGEST engine (transport=%v)", tr),
		"k", "tokens", "messages", "makespan rounds", "rounds/step")
	for _, k := range []int{1, 2, 4} {
		res, err := tr.Run(transport.Spec{
			Workload: "walks",
			Graph:    "rr",
			N:        n,
			D:        d,
			K:        k,
			Steps:    steps,
			Seed:     seed,
			SrcSeed:  seed + 100 + uint64(k),
		}, transport.Options{Probe: cli.Probe(fmt.Sprintf("E4b k=%d", k)), Metrics: cli.Registry()})
		if err != nil {
			return err
		}
		et.AddRow(k, res.Output.(workloads.WalksOutput).Arrived, res.Messages, res.Rounds,
			float64(res.Rounds)/float64(steps))
	}
	fmt.Println(et)
	fmt.Println("Engine results are bit-identical for every -workers and -transport")
	fmt.Println("value; the flags change wall-clock time only (see DESIGN.md §3).")
	return nil
}

// runE15 measures the walk engine's degradation under injected faults: a
// drop-probability sweep plus the user's custom spec, each executed with
// the token re-issue retry loop. Rounds and attempts grow with the drop
// rate while the recovery machinery keeps every token landing until loss
// overwhelms the attempt budget. The sweep runs on the selected
// transport — over tcp each attempt executes as real shard processes
// replaying the plan from the spec, with identical results (E20).
func runE15(cli *cliutil.Harness, g *graph.Graph, d, steps int, seed uint64,
	faultSpec string, faultSeed uint64, attempts int) error {
	specs := []string{"", "drop=0.01", "drop=0.02", "drop=0.05", "drop=0.1"}
	custom := true
	for _, s := range specs {
		if s == faultSpec {
			custom = false
		}
	}
	if custom {
		specs = append(specs, faultSpec)
	}
	counts := randomwalk.UniformCountTimesDegree(g, 1)
	issued := 0
	for _, c := range counts {
		issued += c
	}
	ft := harness.NewTable(
		fmt.Sprintf("E15 — walk degradation under faults (n=%d, T=%d, attempts<=%d, faultseed=%d)",
			g.N(), steps, attempts, faultSeed),
		"spec", "attempts", "rounds", "messages", "dropped", "delayed", "reissued", "lost", "delivered")
	for _, spec := range specs {
		label := spec
		if label == "" {
			label = "(none)"
		}
		stop := cli.Time("e15_" + label)
		res, err := workloads.RunWalksFaults(cli.Transport(), transport.Spec{
			Graph:     "rr",
			N:         g.N(),
			D:         d,
			K:         1,
			Steps:     steps,
			Seed:      seed,
			SrcSeed:   seed + 200,
			FaultSpec: spec,
			FaultSeed: faultSeed,
		}, transport.Options{Probe: cli.Probe("E15 " + label), Metrics: cli.Registry()}, attempts)
		stop()
		if err != nil {
			return err
		}
		delivered := 0
		for _, c := range res.ArrivedAt {
			delivered += c
		}
		ft.AddRow(label, res.Attempts, res.Rounds, res.Messages,
			res.Faults.Dropped, res.Faults.Delayed, res.Reissued, res.Lost,
			fmt.Sprintf("%d/%d", delivered, issued))
	}
	fmt.Println(ft)
	fmt.Println("Token identity plus re-issue after silence recovers every lost walk")
	fmt.Println("while the attempt budget lasts; rounds grow with the drop rate (the")
	fmt.Println("degradation curve), and results are engine- and worker-independent.")
	return nil
}
