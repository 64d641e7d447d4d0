// Command clique regenerates experiment E7 (Theorem 1.3): emulating one
// congested-clique round on top of G(n,p), sweeping p at fixed n. It
// compares the hierarchical phased routing against the direct
// shortest-path baseline, the n/h cut lower bound, the paper's
// O(1/p + log n) corollary curve, and the Balliu et al. min{1/p², np}
// curve.
package main

import (
	"flag"
	"fmt"

	"almostmix/internal/cliquemu"
	"almostmix/internal/cliutil"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func main() {
	n := flag.Int("n", 64, "number of nodes")
	seed := flag.Uint64("seed", 1, "root random seed")
	cli := cliutil.NewHarness("clique", "write the per-run cost-ledger breakdowns to this file (.json for JSON, CSV otherwise)")
	flag.Parse()
	cliutil.Min("n", *n, 2)
	cli.Run(func() error { return run(cli, *n, *seed) })
}

func run(cli *cliutil.Harness, n int, seed uint64) error {
	sink := cli.Sink()
	t := harness.NewTable(
		fmt.Sprintf("E7 — Theorem 1.3: clique emulation on G(n=%d, p)", n),
		"p", "m", "h-sweep", "hier rounds", "phases", "direct rounds",
		"n/2h bound", "paper 1/p+log n", "Balliu min{1/p²,np}")
	var invP, hier []float64
	for i, p := range []float64{0.15, 0.25, 0.4, 0.6} {
		g, err := graph.ConnectedGnp(n, p, rngutil.NewRand(seed+uint64(i)))
		if err != nil {
			return err
		}
		tau, err := spectral.MixingTime(g, spectral.Lazy, 1_000_000)
		if err != nil {
			return err
		}
		params := embed.DefaultParams()
		params.TauMix = tau
		h, err := embed.Build(g, params, rngutil.NewSource(seed+100+uint64(i)))
		if err != nil {
			return err
		}
		stopEmu := cli.Time(fmt.Sprintf("clique_emulation_p%.2f", p))
		res, err := cliquemu.Hierarchical(h, rngutil.NewSource(seed+200+uint64(i)))
		stopEmu()
		if err != nil {
			return err
		}
		direct, err := cliquemu.Direct(g)
		if err != nil {
			return err
		}
		if sink != nil {
			sink.Label(fmt.Sprintf("gnp-p%.2f", p))
			sink.AddCosts("hierarchical", res.Costs)
			sink.AddCosts("direct", direct.Costs)
		}
		hSweep := spectral.EdgeExpansionSweep(g)
		t.AddRow(p, g.M(), hSweep, res.Rounds, res.Phases, direct.Rounds,
			cliquemu.CutLowerBound(n, hSweep),
			cliquemu.PaperBound(n, p),
			cliquemu.BalliuBound(n, p))
		invP = append(invP, 1/p)
		hier = append(hier, float64(res.Rounds))
	}
	fmt.Println(t)
	slope, used := harness.LogLogSlope(invP, hier)
	fmt.Printf("hierarchical rounds vs 1/p: log-log slope = %.2f (%d/%d pts, corollary predicts ≈ 1)\n",
		slope, used, len(invP))
	fmt.Println("Shape check: both algorithms cheapen as p (and hence h) grows; the")
	fmt.Println("polylog-inflated hierarchical cost tracks the 1/p trend of the corollary.")
	return nil
}
