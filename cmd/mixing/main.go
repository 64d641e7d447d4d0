// Command mixing regenerates experiments E3 (Lemma 2.3: the 2Δ-regular
// mixing time against the 8Δ²ln(n)/h² bound) and E11 (h(G) = Θ(np) and
// Δ = Θ(np) for Erdős–Rényi graphs above the connectivity threshold).
//
// Usage:
//
//	mixing            # E3 table over the graph-family zoo
//	mixing -gnp       # E11 table over a p sweep at fixed n
package main

import (
	"flag"
	"fmt"

	"almostmix/internal/cliutil"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func main() {
	gnp := flag.Bool("gnp", false, "run the E11 G(n,p) expansion sweep instead of the E3 family table")
	seed := flag.Uint64("seed", 1, "root random seed")
	cli := cliutil.NewHarness("mixing", "")
	flag.Parse()
	cli.Run(func() error {
		if *gnp {
			return runGnp(cli, *seed)
		}
		return runFamilies(cli, *seed)
	})
}

func runFamilies(cli *cliutil.Harness, seed uint64) error {
	r := rngutil.NewRand(seed)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring16", graph.Ring(16)},
		{"ring20", graph.Ring(20)},
		{"path16", graph.Path(16)},
		{"torus4x4", graph.Torus(4, 4)},
		{"hypercube4", graph.Hypercube(4)},
		{"complete16", graph.Complete(16)},
		{"star16", graph.Star(16)},
		{"rr16d4", graph.RandomRegular(16, 4, r)},
		{"rr20d4", graph.RandomRegular(20, 4, r)},
		{"barbell8", graph.Barbell(8, 0)},
		{"lollipop12+6", graph.Lollipop(12, 6)},
	}
	t := harness.NewTable("E3 — Lemma 2.3: regular mixing time vs 8Δ²ln(n)/h²",
		"graph", "n", "m", "Δ", "diam", "h(G)", "τ̄_mix", "bound", "bound/τ̄")
	for _, f := range families {
		h := spectral.EdgeExpansion(f.g)
		bound := spectral.Lemma23Bound(f.g, h)
		stop := cli.Time("mixing_time_" + f.name)
		tm, err := spectral.MixingTime(f.g, spectral.Regular, int(bound)+10)
		stop()
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		t.AddRow(f.name, f.g.N(), f.g.M(), f.g.MaxDegree(), f.g.Diameter(),
			h, tm, bound, bound/float64(tm))
	}
	fmt.Println(t)
	fmt.Println("Lemma 2.3 holds iff every bound/τ̄ ratio is >= 1.")
	return nil
}

func runGnp(cli *cliutil.Harness, seed uint64) error {
	const n = 128
	t := harness.NewTable("E11 — G(n,p): h(G) and Δ vs np (n = 128)",
		"p", "np", "m", "Δ", "h-sweep", "h/np", "Δ/np")
	for i, p := range []float64{0.06, 0.09, 0.12, 0.18, 0.25, 0.35, 0.5} {
		g, err := graph.ConnectedGnp(n, p, rngutil.NewRand(seed+uint64(i)))
		if err != nil {
			return err
		}
		stop := cli.Time(fmt.Sprintf("expansion_sweep_p%.2f", p))
		h := spectral.EdgeExpansionSweep(g)
		stop()
		np := float64(n) * p
		t.AddRow(p, np, g.M(), g.MaxDegree(), h, h/np, float64(g.MaxDegree())/np)
	}
	fmt.Println(t)
	fmt.Println("E11 holds if h/np and Δ/np stay within constant bands across the sweep.")
	return nil
}
