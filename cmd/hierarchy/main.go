// Command hierarchy regenerates experiments E5 (the level-zero overlay
// G0) and E6 (Lemmas 3.1–3.3 and Figure 1: the hierarchical partition,
// per-level emulation costs, and portal completeness). It builds the full
// structure on an expander and prints the per-level tables plus a
// Figure-1-style rendering of the partition tree.
package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"almostmix/internal/cliutil"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

func main() {
	n := flag.Int("n", 128, "number of nodes of the random-regular base graph")
	d := flag.Int("d", 8, "degree of the base graph")
	beta := flag.Int("beta", 0, "partition branching factor (0 = paper formula)")
	leaf := flag.Int("leaf", 0, "leaf part size target (0 = default)")
	decompose := flag.Bool("decomp", false, "print E18's per-cluster expansion certificates instead: the expander decomposition of the worst-case graphs plus the configured rr graph")
	phi := flag.Float64("phi", 0.1, "conductance target for -decomp's expander decomposition, in (0,1)")
	seed := flag.Uint64("seed", 1, "root random seed")
	cli := cliutil.NewHarness("hierarchy", "write the construction cost-ledger breakdown to this file (.json for JSON, CSV otherwise)")
	flag.Parse()
	cliutil.Phi("phi", *phi)
	cliutil.Min("n", *n, 2)
	cliutil.Regular(*n, *d)
	cliutil.Beta("beta", *beta)
	cliutil.Min("leaf", *leaf, 0)
	cli.Run(func() error {
		if *decompose {
			return runDecomp(cli, *n, *d, *phi, *seed)
		}
		return run(cli, *n, *d, *beta, *leaf, *seed)
	})
}

func run(cli *cliutil.Harness, n, d, beta, leaf int, seed uint64) error {
	g := graph.RandomRegular(n, d, rngutil.NewRand(seed))
	stopTau := cli.Time("mixing_time")
	tau, err := spectral.MixingTime(g, spectral.Lazy, 1_000_000)
	stopTau()
	if err != nil {
		return err
	}
	p := embed.DefaultParams()
	p.Beta = beta
	p.LeafSize = leaf
	p.TauMix = tau
	stopBuild := cli.Time("embed_build")
	h, err := embed.Build(g, p, rngutil.NewSource(seed+1))
	stopBuild()
	if err != nil {
		return err
	}

	fmt.Printf("base graph: rr(n=%d, d=%d), τ_mix=%d (exact), 2m=%d virtual nodes\n",
		n, d, tau, h.VM.Count())
	fmt.Printf("parameters: %+v\n\n", h.Resolved)

	// E5: G0 quality.
	t0 := harness.NewTable("E5 — level-zero overlay G0 (§3.1.1)",
		"quantity", "value")
	t0.AddRow("G0 edges (= 2m·degreeG0)", h.G0.Graph.M())
	t0.AddRow("min G0 degree", h.G0.Graph.MinDegree())
	t0.AddRow("max G0 degree", h.G0.Graph.MaxDegree())
	t0.AddRow("connected", h.G0.Graph.IsConnected())
	t0.AddRow("construction rounds (base)", h.G0.ConstructionRounds)
	t0.AddRow("one G0 round costs (base rounds)", h.G0.EmulationRounds)
	t0.AddRow("G0-round cost / τ_mix", float64(h.G0.EmulationRounds)/float64(tau))
	fmt.Println(t0)

	// E6: per-level table.
	t1 := harness.NewTable("E6 — hierarchy levels (Lemmas 3.1–3.3)",
		"level", "parts", "min|part|", "max|part|", "edges",
		"emu rounds (below)", "emu → G0", "emu → base", "portal gaps")
	for l := 1; l <= h.Levels; l++ {
		o := h.Overlay(l)
		sizes := o.PartSizes()
		minS, maxS := 1<<30, 0
		for _, s := range sizes {
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		t1.AddRow(l, len(sizes), minS, maxS, o.Graph.M(),
			o.EmulationRounds, h.EmulationToG0(l), h.EmulationToBase(l),
			h.PortalsAt(l).Missing)
	}
	fmt.Println(t1)
	fmt.Printf("total construction: %d base rounds (E6; Lemma 3.2's 2^O(√(log n·log log n)) quantity)\n\n",
		h.ConstructionRoundsBase())

	printFigure1(h)

	if sink := cli.Sink(); sink != nil {
		sink.Label(fmt.Sprintf("rr%dd%d", n, d)).AddCosts("construction", h.Costs)
	}
	return nil
}

// runDecomp prints E18's structural half: the expander decomposition of
// each worst-case graph (and the configured rr control), one certificate
// table per graph. Every cluster carries its realized sweep-cut
// conductance φ_s — an upper bound by exhibition and, via Cheeger, a
// ≥ φ_s²/4 lower-bound certificate — plus the lazy-walk mixing-time
// estimate the per-cluster hierarchy is parameterized by.
func runDecomp(cli *cliutil.Harness, n, d int, phi float64, seed uint64) error {
	sink := cli.Sink()
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{fmt.Sprintf("rr%dd%d", n, d), graph.RandomRegular(n, d, rngutil.NewRand(seed))},
		{"lollipop32+16", graph.Lollipop(32, 16)},
		{"barbell16+8", graph.Barbell(16, 8)},
	}
	if cl, err := graph.ConnectedChungLu(96, 2.5, 8, seed); err == nil {
		instances = append(instances, struct {
			name string
			g    *graph.Graph
		}{"chunglu96", cl})
	}
	for _, inst := range instances {
		stop := cli.Time("decomp_" + inst.name)
		dec, err := decomp.Decompose(inst.g, decomp.Params{Phi: phi})
		stop()
		if err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
		t := harness.NewTable(
			fmt.Sprintf("E18 — %s: expander decomposition (φ=%g, %d clusters, %d/%d cross edges, %d sweep passes)",
				inst.name, phi, len(dec.Clusters), len(dec.CrossEdges), inst.g.M(), dec.SweepPasses),
			"cluster", "nodes", "edges", "boundary", "φ sweep", "φ lower bound", "λ2", "τ est", "reason")
		for _, c := range dec.Clusters {
			t.AddRow(c.Index, len(c.Nodes), c.Sub.G.M(), len(c.Sub.Boundary()),
				c.Cert.PhiSweep, c.Cert.PhiSweep*c.Cert.PhiSweep/4,
				c.Cert.Lambda2, c.Cert.MixingTime, c.Cert.Reason)
		}
		fmt.Println(t)
		if sink != nil {
			sink.Label(inst.name).AddCosts("decomp", dec.Costs)
		}
	}
	fmt.Println("Each certificate is checkable: φ sweep is realized by an actual cut,")
	fmt.Println("and Cheeger turns it into the φ²/4 conductance lower bound the")
	fmt.Println("per-cluster routing tier relies on. Cross edges stay within ε·m.")
	return nil
}

// printFigure1 renders the partition tree of Figure 1: each level's balls
// with their sizes, indented by depth (levels beyond the third and more
// than eight balls per node are elided for readability).
func printFigure1(h *embed.Hierarchy) {
	fmt.Println("## Figure 1 — hierarchical partition (ball sizes)")
	sizes := make([]map[int32]int, h.Levels+1)
	sizes[0] = h.G0.PartSizes()
	for l := 1; l <= h.Levels; l++ {
		sizes[l] = h.Overlay(l).PartSizes()
	}
	var render func(level int, part int32, indent string)
	render = func(level int, part int32, indent string) {
		size := sizes[level][part]
		if size == 0 {
			return
		}
		label := "G0"
		if level > 0 {
			label = fmt.Sprintf("ball %d", part)
		}
		fmt.Printf("%s%s: %d virtual nodes\n", indent, label, size)
		if level == h.Levels || level >= 3 {
			return
		}
		children := make([]int32, 0, h.Beta)
		for child := part * int32(h.Beta); child < (part+1)*int32(h.Beta); child++ {
			if sizes[level+1][child] > 0 {
				children = append(children, child)
			}
		}
		sort.Slice(children, func(a, b int) bool { return children[a] < children[b] })
		for i, child := range children {
			if i == 8 {
				fmt.Printf("%s  … (%d more balls)\n", indent, len(children)-8)
				break
			}
			render(level+1, child, indent+strings.Repeat(" ", 2))
		}
	}
	render(0, 0, "")
}
