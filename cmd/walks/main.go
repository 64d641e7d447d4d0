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
	"os"

	"almostmix/internal/cliutil"
	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/metrics"
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
	workers := flag.Int("workers", 1, "simulator workers for the node-program walk (1 = sequential reference, 0 = one per CPU); results are identical for every value")
	trace := flag.String("trace", "", "write a per-round trace of every run to this file (.json for JSON, CSV otherwise)")
	metricsOut := flag.String("metrics", "", "write a host-side metrics snapshot to this file (.json for JSON, CSV otherwise)")
	pprofMode := flag.String("pprof", "", "capture a runtime profile: cpu, heap or mutex")
	pprofOut := flag.String("pprofout", "", "profile output path (default <mode>.pprof)")
	faultSpec := flag.String("faults", "", `run the E15 degradation sweep with this fault spec as its custom row, e.g. "drop=0.05,delay=0.1:3" (see DESIGN.md §3)`)
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection seed for -faults (independent of -seed)")
	attempts := flag.Int("attempts", 5, "max network runs per faulty execution before declaring tokens lost")
	transportName := flag.String("transport", "proc", "node-program execution backend: proc (in-process engines) or tcp (one OS process per shard over loopback TCP); results are identical")
	shards := flag.Int("shards", 2, "node processes for -transport=tcp")
	listen := flag.String("listen", "127.0.0.1:0", "coordinator listen address for -transport=tcp")
	tcpnode := flag.String("tcpnode", "", "path to the tcpnode binary for -transport=tcp (default: next to this binary)")
	tcptimeout := flag.Duration("tcptimeout", 0, "wire barrier deadline for -transport=tcp (0 = transport default, 60s)")
	obsOut := flag.String("obsout", "", "write the tcp run's merged observability document (flight recorders, wire tallies, barrier timeline, round skew) to this file on every exit path")
	flightRec := flag.Int("flightrec", 0, "flight-recorder ring capacity on coordinator and shards for -transport=tcp (0 = default)")
	flag.Parse()
	cliutil.Min("n", *n, 2)
	cliutil.Min("d", *d, 1)
	cliutil.Min("steps", *steps, 0)
	cliutil.Workers("workers", *workers)
	cliutil.Min("attempts", *attempts, 1)
	cliutil.FaultSpec("faults", *faultSpec)
	cliutil.Transport("transport", *transportName)
	cliutil.Min("shards", *shards, 1)
	cliutil.Listen("listen", *listen)
	cliutil.Min("flightrec", *flightRec, 0)
	cliutil.ObsOut("obsout", *obsOut, *transportName)
	cliutil.Writable("trace", *trace)
	cliutil.Writable("metrics", *metricsOut)
	cliutil.Writable("pprofout", *pprofOut)
	cliutil.Writable("obsout", *obsOut)
	tr, err := transport.NewBackend(*transportName, transport.BackendConfig{
		Workers:      *workers,
		Shards:       *shards,
		Listen:       *listen,
		NodeBin:      *tcpnode,
		Timeout:      *tcptimeout,
		ObsOut:       *obsOut,
		FlightRecCap: *flightRec,
	})
	if err != nil {
		cliutil.Fail("%v", err)
	}

	sess, err := metrics.StartSession(*metricsOut, *pprofMode, *pprofOut)
	if err == nil {
		err = run(*n, *d, *steps, *seed, *trace, *faultSpec, *faultSeed, *attempts, tr, sess)
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "walks:", err)
		os.Exit(1)
	}
}

func run(n, d, steps int, seed uint64, trace, faultSpec string, faultSeed uint64, attempts int, tr transport.Transport, sess *metrics.Session) error {
	var sink *congest.TraceSink
	if trace != "" || sess.Registry() != nil {
		sink = congest.NewTraceSink().WithMetrics(sess.Registry())
	}
	g := graph.RandomRegular(n, d, rngutil.NewRand(seed))
	logN := math.Log2(float64(n))
	t := harness.NewTable(
		fmt.Sprintf("E4 — Lemmas 2.4/2.5: parallel walks on rr(n=%d, d=%d), T=%d", n, d, steps),
		"k", "walks", "max tokens/node", "occupancy bound k·d+log n", "rounds/step", "phase bound k+log n")
	for _, k := range []int{1, 2, 4, 8, 16} {
		sources := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, k))
		cfg := randomwalk.Config{
			Kind:  spectral.Lazy,
			Steps: steps,
		}
		if sink != nil {
			cfg.Probe = sink.Label(fmt.Sprintf("E4 k=%d", k))
		}
		stop := sess.Time(fmt.Sprintf("e4_analytic_k%d", k))
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
		var probe congest.Probe
		if sink != nil {
			probe = sink.Label(fmt.Sprintf("E4b k=%d", k))
		}
		res, err := tr.Run(transport.Spec{
			Workload: "walks",
			Graph:    "rr",
			N:        n,
			D:        d,
			K:        k,
			Steps:    steps,
			Seed:     seed,
			SrcSeed:  seed + 100 + uint64(k),
		}, transport.Options{Probe: probe, Metrics: sess.Registry()})
		if err != nil {
			return err
		}
		et.AddRow(k, res.Output.(workloads.WalksOutput).Arrived, res.Messages, res.Rounds,
			float64(res.Rounds)/float64(steps))
	}
	fmt.Println(et)
	fmt.Println("Engine results are bit-identical for every -workers and -transport")
	fmt.Println("value; the flags change wall-clock time only (see DESIGN.md §3).")

	if faultSpec != "" {
		if err := runE15(g, n, d, steps, seed, faultSpec, faultSeed, attempts, tr, sink, sess); err != nil {
			return err
		}
	}

	if sink != nil && trace != "" {
		if err := sink.WriteFile(trace); err != nil {
			return err
		}
		fmt.Printf("wrote per-round trace (%d round records) to %s\n",
			len(sink.Rounds.Samples), trace)
	}
	return nil
}

// runE15 measures the walk engine's degradation under injected faults: a
// drop-probability sweep plus the user's custom spec, each executed with
// the token re-issue retry loop. Rounds and attempts grow with the drop
// rate while the recovery machinery keeps every token landing until loss
// overwhelms the attempt budget. The sweep runs on the selected
// transport — over tcp each attempt executes as real shard processes
// fed per-round fate windows, with identical results (E20).
func runE15(g *graph.Graph, n, d, steps int, seed uint64,
	faultSpec string, faultSeed uint64, attempts int, tr transport.Transport,
	sink *congest.TraceSink, sess *metrics.Session) error {
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
		var probe congest.Probe
		if sink != nil {
			probe = sink.Label("E15 " + label)
		}
		stop := sess.Time("e15_" + label)
		res, err := workloads.RunWalksFaults(tr, transport.Spec{
			Graph:     "rr",
			N:         n,
			D:         d,
			K:         1,
			Steps:     steps,
			Seed:      seed,
			SrcSeed:   seed + 200,
			FaultSpec: spec,
			FaultSeed: faultSeed,
		}, transport.Options{Probe: probe, Metrics: sess.Registry()}, attempts)
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
