// Command mincut regenerates experiment E10 (§4's closing remark): the
// tree-packing approximate minimum cut against the exact Stoer–Wagner
// value, on graphs with planted sparse cuts. Distributed round
// accounting: each packed tree is one hierarchical MST computation, so the
// charged rounds are TreesUsed × (measured MST rounds on a same-size
// expander), reported alongside.
package main

import (
	"flag"
	"fmt"

	"almostmix/internal/cliutil"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/mincut"
	"almostmix/internal/mst"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func main() {
	seed := flag.Uint64("seed", 1, "root random seed")
	cli := cliutil.NewHarness("mincut", "write the round-accounting cost-ledger breakdown to this file (.json for JSON, CSV otherwise)")
	flag.Parse()
	cli.Run(func() error { return run(cli, *seed) })
}

func run(cli *cliutil.Harness, seed uint64) error {
	r := rngutil.NewRand(seed)
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"barbell16", graph.Barbell(16, 0)},
		{"barbell12+4", graph.Barbell(12, 4)},
		{"dumbbell-2", graph.Dumbbell(24, 4, 2, r)},
		{"dumbbell-5", graph.Dumbbell(24, 4, 5, r)},
		{"rr48d4", graph.RandomRegular(48, 4, r)},
		{"lollipop24+8", graph.Lollipop(24, 8)},
	}
	t := harness.NewTable("E10 — approximate min cut via greedy tree packing",
		"graph", "n", "exact cut", "approx cut", "ratio", "trees")
	for _, inst := range instances {
		exact, _, err := mincut.StoerWagner(inst.g)
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		stop := cli.Time("approx_" + inst.name)
		res, err := mincut.Approx(inst.g, 0, rngutil.NewRand(seed+3))
		stop()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		t.AddRow(inst.name, inst.g.N(), exact, res.CutSize,
			float64(res.CutSize)/exact, res.TreesUsed)
	}
	fmt.Println(t)

	// Round accounting reference: one hierarchical MST on a same-scale
	// expander (each packed tree costs one such computation).
	g := graph.RandomRegular(64, 8, rngutil.NewRand(seed+4))
	g.AssignDistinctRandomWeights(rngutil.NewRand(seed + 5))
	tau, err := spectral.MixingTime(g, spectral.Lazy, 1_000_000)
	if err != nil {
		return err
	}
	p := embed.DefaultParams()
	p.TauMix = tau
	h, err := embed.Build(g, p, rngutil.NewSource(seed+6))
	if err != nil {
		return err
	}
	res, err := mst.Run(h, rngutil.NewSource(seed+7))
	if err != nil {
		return err
	}
	pack, err := mincut.Approx(g, 0, rngutil.NewRand(seed+8)) // 2·log₂ 64 = 12 trees
	if err != nil {
		return err
	}
	led, charged := mincut.PackingCharge(pack, res)
	fmt.Printf("round accounting: one hierarchical MST at n=64 measures %d rounds;\n", res.AlgorithmRounds)
	fmt.Printf("a %d-tree packing therefore charges ≈ %d rounds — the same\n", pack.TreesUsed, charged)
	fmt.Println("τ_mix·2^O(√(log n·log log n)) budget as Theorem 1.1, as the paper remarks.")

	if sink := cli.Sink(); sink != nil {
		sink.Label("rr64d8")
		sink.AddCosts("packing", led)
		sink.AddCosts("mst", res.Costs)
	}
	return nil
}
