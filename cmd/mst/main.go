// Command mst regenerates experiments E1 (Theorem 1.1: MST in
// τ_mix·2^O(√(log n·log log n)) rounds, against the flood-GHS and
// Garay–Kutten–Peleg baselines) and E9 (Lemma 4.1: the virtual-tree depth
// and degree invariants, via -audit).
package main

import (
	"flag"
	"fmt"

	"almostmix/internal/cliutil"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

func main() {
	audit := flag.Bool("audit", false, "print the E9 per-iteration virtual-tree audit")
	ghsnet := flag.Bool("ghsnet", false, "also run the node-program GHS on the CONGEST simulator (implied by -trace, -metrics, -faults and -transport=tcp)")
	quick := flag.Bool("quick", false, "run only the smallest expander instance (CI smoke)")
	decompose := flag.Bool("decomp", false, "run E18 instead: MST through the cluster-scoped tier (per-cluster MSFs + GHS stitch over the sparsified graph) on worst-case graphs, against the direct baselines")
	phi := flag.Float64("phi", 0.1, "conductance target for -decomp's expander decomposition, in (0,1)")
	seed := flag.Uint64("seed", 1, "root random seed")
	faultSpec := flag.String("faults", "", `run the E15 GHS degradation sweep with this fault spec as its custom row, e.g. "drop=0.02" (see DESIGN.md §3); implies -ghsnet`)
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection seed for -faults (independent of -seed)")
	attempts := flag.Int("attempts", 5, "max restarts per faulty GHS execution before declaring failure")
	cli := cliutil.NewHarness("mst", "write a trace to this file (.json for JSON, CSV otherwise): per-round records of the -ghsnet runs plus the hierarchical MST's cost-ledger breakdown; implies -ghsnet").WithBackend()
	flag.Parse()
	cliutil.Phi("phi", *phi)
	cliutil.Min("attempts", *attempts, 1)
	cliutil.FaultSpec("faults", *faultSpec)
	cli.Run(func() error {
		if *decompose {
			return runE18MST(cli, *quick, *phi, *seed)
		}
		return run(cli, *audit, *ghsnet, *quick, *seed, *faultSpec, *faultSeed, *attempts)
	})
}

func run(cli *cliutil.Harness, audit, ghsnet, quick bool, seed uint64, faultSpec string, faultSeed uint64, attempts int) error {
	sink, tr := cli.Sink(), cli.Transport()
	ghsnet = ghsnet || sink != nil || faultSpec != "" || tr.Name() == "tcp"
	// Each instance is described by its replayable spec and built through
	// the same BuildGraph a TCP shard process uses, so every backend —
	// and every process of a multi-process run — holds the identical
	// weighted graph.
	mkSpec := func(kind string, n, d int, gseed uint64) transport.Spec {
		return transport.Spec{
			Workload: "ghs", Graph: kind, N: n, D: d,
			Seed: gseed, SrcSeed: seed + 30, WeightSeed: seed + 7,
		}
	}
	instances := []struct {
		name string
		spec transport.Spec
		g    *graph.Graph
	}{
		{name: "rr64d8", spec: mkSpec("rr", 64, 8, seed)},
		{name: "rr128d8", spec: mkSpec("rr", 128, 8, seed+1)},
		{name: "rr256d8", spec: mkSpec("rr", 256, 8, seed+2)},
		// Poor-expansion contrast rows: τ_mix is the dominating factor.
		{name: "ring64", spec: mkSpec("ring", 64, 0, 0)},
		{name: "lollipop32+12", spec: mkSpec("lollipop", 32, 12, 0)},
	}
	if quick {
		instances = instances[:1]
	}
	for i := range instances {
		g, err := transport.BuildGraph(instances[i].spec)
		if err != nil {
			return err
		}
		instances[i].g = g
	}
	t := harness.NewTable("E1 — Theorem 1.1: MST round counts",
		"graph", "n", "τ_mix", "hier alg", "hier +build", "GHS", "KP", "weights agree")
	var ns, hierR, ghsR, kpR []float64
	for _, inst := range instances {
		g := inst.g
		tau, err := spectral.MixingTime(g, spectral.Lazy, 5_000_000)
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		p := embed.DefaultParams()
		p.TauMix = tau
		stopBuild := cli.Time("embed_build_" + inst.name)
		h, err := embed.Build(g, p, rngutil.NewSource(seed+10))
		stopBuild()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		stopMST := cli.Time("mst_run_" + inst.name)
		res, err := mst.Run(h, rngutil.NewSource(seed+20))
		stopMST()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		if sink != nil {
			sink.Label(inst.name).AddCosts("hierarchical", res.Costs)
		}
		ghs, err := mstbase.GHS(g)
		if err != nil {
			return err
		}
		kp, err := mstbase.KP(g)
		if err != nil {
			return err
		}
		_, want := mstbase.Kruskal(g)
		agree := res.Weight == want && ghs.Weight == want && kp.Weight == want
		t.AddRow(inst.name, g.N(), tau, res.AlgorithmRounds, res.Rounds,
			ghs.Rounds, kp.Rounds, agree)
		if inst.name[0] == 'r' && inst.name[1] == 'r' {
			ns = append(ns, float64(g.N()))
			hierR = append(hierR, float64(res.AlgorithmRounds))
			ghsR = append(ghsR, float64(ghs.Rounds))
			kpR = append(kpR, float64(kp.Rounds))
		}

		if audit && g.N() == 128 && inst.name == "rr128d8" {
			printAudit(res)
		}
	}
	fmt.Println(t)
	hierS, hierN := harness.LogLogSlope(ns, hierR)
	ghsS, ghsN := harness.LogLogSlope(ns, ghsR)
	kpS, kpN := harness.LogLogSlope(ns, kpR)
	fmt.Printf("expander scaling slopes (log-log, rounds vs n): hier %.2f (%d pts), GHS %.2f (%d pts), KP %.2f (%d pts)\n",
		hierS, hierN, ghsS, ghsN, kpS, kpN)
	fmt.Println("Theorem 1.1's shape: the hierarchical MST's cost is governed by τ_mix")
	fmt.Println("and polylogs (flat-ish slope), not by n or D; its constants dominate at")
	fmt.Println("laptop n, so the observed crossover against Õ(D+√n) is extrapolated.")

	if ghsnet {
		nt := harness.NewTable(
			fmt.Sprintf("E1b — node-program GHS on the CONGEST simulator (transport=%v)", tr),
			"graph", "n", "rounds", "iterations", "weight agrees")
		for _, inst := range instances {
			res, err := tr.Run(inst.spec, transport.Options{Probe: cli.Probe(inst.name), Metrics: cli.Registry()})
			if err != nil {
				return err
			}
			out := res.Output.(workloads.MSTOutput)
			_, want := mstbase.Kruskal(inst.g)
			nt.AddRow(inst.name, inst.g.N(), res.Rounds, mstbase.GHSIterations(inst.g.N(), res.Rounds), out.Weight == want)
		}
		fmt.Println(nt)
		fmt.Println("Round counts are engine- and transport-independent: -workers and")
		fmt.Println("-transport change wall-clock only (see DESIGN.md §3).")

		if faultSpec != "" {
			return runE15MST(cli, instances[0].g, instances[0].spec, seed, faultSpec, faultSeed, attempts)
		}
	}
	return nil
}

// runE18MST regenerates the MST half of experiment E18: each worst-case
// graph is decomposed into expander clusters, every cluster computes its
// minimum spanning forest through its own hierarchy (or directly, for
// tiny tiers), and a GHS pass over the sparsified graph — cluster-tree
// edges plus all cross edges — stitches the global MST. The cycle
// property makes the result exact: with distinct weights the edge set
// equals Kruskal's.
func runE18MST(cli *cliutil.Harness, quick bool, phi float64, seed uint64) error {
	sink := cli.Sink()
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"rr64d8", graph.RandomRegular(64, 8, rngutil.NewRand(seed))},
		{"lollipop32+16", graph.Lollipop(32, 16)},
		{"barbell16+8", graph.Barbell(16, 8)},
	}
	if !quick {
		cl, err := graph.ConnectedChungLu(96, 2.5, 8, seed)
		if err != nil {
			return err
		}
		instances = append(instances, struct {
			name string
			g    *graph.Graph
		}{"chunglu96", cl})
	} else {
		instances = instances[:1]
	}
	t := harness.NewTable(fmt.Sprintf("E18 — cluster-scoped MST (φ=%g)", phi),
		"graph", "n", "clusters", "cross edges", "cluster rounds", "stitch rounds",
		"total", "GHS", "weight = Kruskal")
	for _, inst := range instances {
		g := inst.g
		g.AssignDistinctRandomWeights(rngutil.NewRand(seed + 7))
		dec, err := decomp.Decompose(g, decomp.Params{Phi: phi})
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		stopBuild := cli.Time("decomp_build_" + inst.name)
		pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(seed+10))
		stopBuild()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		stopMST := cli.Time("decomp_mst_" + inst.name)
		res, err := mst.RunPartitioned(pe, rngutil.NewSource(seed+20))
		stopMST()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		ghs, err := mstbase.GHS(g)
		if err != nil {
			return err
		}
		_, want := mstbase.Kruskal(g)
		if sink != nil {
			sink.Label(inst.name).AddCosts("decomp", dec.Costs)
			sink.AddCosts("decomp-build", pe.Costs)
			sink.AddCosts("decomp-mst", res.Costs)
		}
		t.AddRow(inst.name, g.N(), len(dec.Clusters), len(dec.CrossEdges),
			res.ClusterRounds, res.StitchRounds, res.Rounds, ghs.Rounds,
			res.Weight == want)
	}
	fmt.Println(t)
	fmt.Println("Per-cluster MSFs run in parallel (cluster rounds = the slowest cluster);")
	fmt.Println("the stitch is a GHS over cluster trees plus cross edges only. The cycle")
	fmt.Println("property guarantees the stitched tree is the exact global MST.")
	return nil
}

// runE15MST measures GHS degradation under injected faults on the first
// (smallest) expander instance: a drop-probability sweep plus the user's
// custom spec, each run with in-protocol window retries and up to
// `attempts` whole-computation restarts. Success means the exact MST was
// recovered; rounds and attempts grow with the fault rate. The sweep
// runs on the selected transport — over tcp each restart executes as
// real shard processes replaying the plan from the spec, with identical
// results (E20).
func runE15MST(cli *cliutil.Harness, g *graph.Graph, spec transport.Spec, seed uint64,
	faultSpec string, faultSeed uint64, attempts int) error {
	specs := []string{"", "drop=0.005", "drop=0.01", "drop=0.02"}
	custom := true
	for _, s := range specs {
		if s == faultSpec {
			custom = false
		}
	}
	if custom {
		specs = append(specs, faultSpec)
	}
	_, want := mstbase.Kruskal(g)
	ft := harness.NewTable(
		fmt.Sprintf("E15 — GHS degradation under faults (n=%d, attempts<=%d, faultseed=%d)",
			g.N(), attempts, faultSeed),
		"spec", "attempts", "rounds", "dropped", "delayed", "crash rounds", "recovered", "weight agrees")
	for _, fs := range specs {
		label := fs
		if label == "" {
			label = "(none)"
		}
		fspec := spec
		fspec.SrcSeed = seed + 40
		fspec.FaultSpec = fs
		fspec.FaultSeed = faultSeed
		stop := cli.Time("e15_ghs_" + label)
		res, err := workloads.RunGHSFaults(cli.Transport(), fspec, transport.Options{Probe: cli.Probe("E15 " + label), Metrics: cli.Registry()}, attempts)
		stop()
		if err != nil {
			return err
		}
		ft.AddRow(label, res.Attempts, res.Rounds,
			res.Faults.Dropped, res.Faults.Delayed, res.Faults.Crashed,
			res.Recovered, res.Recovered && res.Weight == want)
	}
	fmt.Println(ft)
	fmt.Println("Faulted windows stall and retry instead of committing corrupt merges;")
	fmt.Println("an attempt that cannot converge restarts from scratch. Success rate and")
	fmt.Println("rounds-to-completion degrade with the drop rate; results are")
	fmt.Println("engine- and worker-independent.")
	return nil
}

func printAudit(res *mst.Result) {
	t := harness.NewTable("E9 — Lemma 4.1 audit (rr128d8)",
		"iter", "fragments", "merges", "tree depth", "balance waves",
		"step rounds", "iter rounds", "max inDeg/d")
	for i, it := range res.Iterations {
		t.AddRow(i, it.Fragments, it.Merges, it.TreeDepth, it.BalanceWaves,
			it.StepRounds, it.Rounds, it.MaxInDegRatio)
	}
	fmt.Println(t)
	fmt.Printf("max tree depth ever: %d; max inDeg/d ratio ever: %.2f\n\n",
		res.MaxTreeDepth, res.MaxInDegRatio)
}
