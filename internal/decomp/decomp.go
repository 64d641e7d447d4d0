// Package decomp implements a deterministic expander decomposition: it
// partitions a graph into clusters whose induced subgraphs mix well,
// cutting only a bounded fraction of edges, in the style of
// Chang–Saranurak's deterministic expander decompositions. The source
// paper's hierarchy (embed.Build) assumes the whole graph is one
// expander; decomposing first and embedding per cluster converts the
// lollipop/barbell/power-law degradation inputs into handled cases.
//
// The algorithm is conductance-sweep trimming on top of
// internal/spectral: recursively, a piece that falls apart into
// connected components is split along them for free; a connected piece
// whose best Fiedler sweep cut already has conductance ≥ φ (no good cut
// exists) is accepted as a cluster, as is any piece at or below the
// minimum size; otherwise the piece is cut at the best sweep prefix and
// both sides recurse, charging the cut against an ε·m inter-cluster edge
// budget that children inherit proportionally to their edge counts.
// A piece whose best cut would overdraw its budget is accepted as-is
// (Reason = BudgetStop) — the certificate records its actual sweep
// bound, so low-conductance clusters are visible, never silent.
//
// Every accepted cluster carries a Certificate: the sweep upper bound on
// its conductance, the power-iteration λ₂, and the spectral mixing-time
// estimate, all recorded as informational spans in the cost ledger under
// the decomp/ path prefix. By Cheeger's inequality the sweep bound φ_s
// certifies true conductance ≥ φ_s²/4 (up to power-iteration accuracy),
// so "no cut found" is an expansion certificate, not just a heuristic
// shrug.
//
// Determinism contract: the decomposition — cluster assignment,
// certificates, ledger — is a pure function of (graph, Params). The
// recursion is serial and joins its branches in recursion order.
package decomp

import (
	"fmt"
	"sort"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/spectral"
)

// Params configures the decomposition.
type Params struct {
	// Phi is the target conductance: a piece is accepted as a cluster
	// when its best sweep cut has conductance ≥ Phi. Default 0.1.
	Phi float64
	// Eps bounds the inter-cluster edges as a fraction of m: the
	// recursion never cuts more than ⌊Eps·m⌋ edges in total. Default 0.3.
	Eps float64
	// MinSize accepts any piece with at most this many nodes outright.
	// Default 8.
	MinSize int
}

// withDefaults fills zero fields with the defaults above.
func (p Params) withDefaults() Params {
	if p.Phi == 0 {
		p.Phi = 0.1
	}
	if p.Eps == 0 {
		p.Eps = 0.3
	}
	if p.MinSize == 0 {
		p.MinSize = 8
	}
	return p
}

func (p Params) validate() error {
	if p.Phi <= 0 || p.Phi >= 1 {
		return fmt.Errorf("decomp: phi must be in (0,1), got %g", p.Phi)
	}
	if p.Eps < 0 || p.Eps >= 1 {
		return fmt.Errorf("decomp: eps must be in [0,1), got %g", p.Eps)
	}
	if p.MinSize < 1 {
		return fmt.Errorf("decomp: min cluster size must be >= 1, got %d", p.MinSize)
	}
	return nil
}

// Reason records why a piece was accepted as a cluster.
type Reason int

const (
	// Expander: the best sweep cut had conductance ≥ Phi, certifying
	// (via Cheeger) that no Ω(Phi²) cut exists.
	Expander Reason = iota + 1
	// SmallPiece: the piece was at or below MinSize.
	SmallPiece
	// BudgetStop: a good cut existed but would overdraw the piece's
	// share of the ε·m cross-edge budget.
	BudgetStop
)

func (r Reason) String() string {
	switch r {
	case Expander:
		return "expander"
	case SmallPiece:
		return "small"
	case BudgetStop:
		return "budget"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Certificate is the per-cluster expansion evidence, recorded in the
// cost ledger. All quantities refer to the cluster's induced subgraph.
type Certificate struct {
	// PhiSweep is the conductance of the best Fiedler sweep cut — an
	// upper bound on the cluster's conductance realized by an actual
	// cut, and via Cheeger a ≥ PhiSweep²/4 lower-bound certificate.
	// Zero for single-node clusters (no cut exists).
	PhiSweep float64
	// Lambda2 is the power-iteration estimate of the walk operator's
	// second eigenvalue.
	Lambda2 float64
	// MixingTime is spectral.MixingTimeEstimate on the cluster (lazy
	// walk). Clusters are connected by construction, so the TimeUnmixed
	// sentinel never appears here.
	MixingTime int
	// Reason is why the recursion stopped at this cluster.
	Reason Reason
}

// Cluster is one part of the decomposition.
type Cluster struct {
	// Index is the cluster's position in Decomposition.Clusters.
	Index int
	// Nodes are the cluster's base-graph nodes, ascending.
	Nodes []int
	// Sub is the induced-subgraph view (local relabeling, boundary
	// edges) the per-cluster embedding runs on.
	Sub *graph.Subgraph
	// Cert is the expansion certificate.
	Cert Certificate
}

// Decomposition is the result of Decompose.
type Decomposition struct {
	// Base is the decomposed graph.
	Base *graph.Graph
	// Params echoes the resolved parameters.
	Params Params
	// Clusters, ordered by smallest contained node.
	Clusters []*Cluster
	// ClusterOf maps each base node to its cluster index.
	ClusterOf []int32
	// CrossEdges lists the base edge IDs with endpoints in different
	// clusters, ascending. At most ⌊Eps·m⌋ by construction.
	CrossEdges []int
	// SweepPasses counts the Fiedler sweep invocations the recursion
	// spent — the ledger root's total.
	SweepPasses int
	// Costs is the decomposition's ledger: root "decomp" (unit "sweep
	// passes") with informational per-cluster certificate spans
	// (decomp/certificates/cluster-NN/...) and the cross-edge count.
	Costs *cost.Ledger
}

// splitOut is one recursion branch's result: accepted clusters in
// deterministic recursion order plus the sweep passes spent.
type splitOut struct {
	clusters []*Cluster
	sweeps   int
}

type decomposer struct {
	g *graph.Graph
	p Params
}

// Decompose partitions g into expander clusters. It accepts any graph,
// including disconnected ones (components split for free). The result is
// a pure function of g and the parameters.
func Decompose(g *graph.Graph, p Params) (*Decomposition, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("decomp: empty graph")
	}
	d := &decomposer{g: g, p: p}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	budget := int(p.Eps * float64(g.M()))
	out := d.split(all, budget)

	// Recursion order is deterministic but Fiedler-orientation-shaped;
	// reorder by smallest contained node for stable, readable output.
	sort.Slice(out.clusters, func(i, j int) bool {
		return out.clusters[i].Nodes[0] < out.clusters[j].Nodes[0]
	})
	dec := &Decomposition{
		Base:        g,
		Params:      p,
		Clusters:    out.clusters,
		ClusterOf:   make([]int32, g.N()),
		SweepPasses: out.sweeps,
	}
	for i, c := range dec.Clusters {
		c.Index = i
		for _, v := range c.Nodes {
			dec.ClusterOf[v] = int32(i)
		}
	}
	for id, e := range g.Edges() {
		if dec.ClusterOf[e.U] != dec.ClusterOf[e.V] {
			dec.CrossEdges = append(dec.CrossEdges, id)
		}
	}
	if len(dec.CrossEdges) > budget {
		return nil, fmt.Errorf("decomp: internal error: %d cross edges exceed budget %d", len(dec.CrossEdges), budget)
	}
	dec.Costs = dec.buildLedger()
	if err := dec.Costs.Err(); err != nil {
		return nil, err
	}
	return dec, nil
}

// split recursively decomposes the piece `nodes` (global IDs, ascending)
// with the given cross-edge budget.
func (d *decomposer) split(nodes []int, budget int) splitOut {
	sub := d.g.InducedSubgraph(nodes)
	if !sub.G.IsConnected() {
		comps := sub.G.Components()
		parts := make([][]int, len(comps))
		edges := make([]int, len(comps))
		compOf := make([]int32, sub.G.N())
		for ci, comp := range comps {
			for _, l := range comp {
				compOf[l] = int32(ci)
			}
		}
		// Rebuild each part in ascending global order (comp is BFS order;
		// local order is ascending global order because nodes was).
		for l := 0; l < sub.G.N(); l++ {
			ci := compOf[l]
			parts[ci] = append(parts[ci], sub.Global(l))
		}
		for _, e := range sub.G.Edges() {
			edges[compOf[e.U]]++
		}
		return d.runParts(parts, edges, budget)
	}
	if len(nodes) <= d.p.MinSize {
		return d.accept(nodes, sub, SmallPiece, 0, -1)
	}
	phi, inS := spectral.ConductanceSweepCut(sub.G)
	if phi >= d.p.Phi {
		return d.accept(nodes, sub, Expander, 1, phi)
	}
	cut := sub.G.CutSize(inS)
	if cut > budget {
		return d.accept(nodes, sub, BudgetStop, 1, phi)
	}
	var s, t []int
	for l, v := range nodes {
		if inS[l] {
			s = append(s, v)
		} else {
			t = append(t, v)
		}
	}
	mS := 0
	for _, e := range sub.G.Edges() {
		if inS[e.U] && inS[e.V] {
			mS++
		}
	}
	mT := sub.G.M() - mS - cut
	out := d.runParts([][]int{s, t}, []int{mS, mT}, budget-cut)
	out.sweeps++
	return out
}

// runParts recurses into the parts, splitting the remaining budget
// proportionally to each part's internal edge count, and joins the
// results in part order.
func (d *decomposer) runParts(parts [][]int, edges []int, budget int) splitOut {
	total := 0
	for _, m := range edges {
		total += m
	}
	var out splitOut
	for i, part := range parts {
		share := 0
		if total > 0 {
			share = budget * edges[i] / total
		}
		o := d.split(part, share)
		out.clusters = append(out.clusters, o.clusters...)
		out.sweeps += o.sweeps
	}
	return out
}

// accept finalizes a piece as a cluster with its certificate. phiKnown
// < 0 means no sweep has run yet for this piece (small pieces); it is
// computed here so every multi-node cluster certificate carries a real
// bound.
func (d *decomposer) accept(nodes []int, sub *graph.Subgraph, why Reason, sweeps int, phiKnown float64) splitOut {
	cert := Certificate{Reason: why}
	if sub.G.N() >= 2 {
		if phiKnown >= 0 {
			cert.PhiSweep = phiKnown
		} else {
			cert.PhiSweep, _ = spectral.ConductanceSweepCut(sub.G)
			sweeps++
		}
		cert.Lambda2 = spectral.SecondEigenvalue(sub.G, spectral.Lazy, 200)
		cert.MixingTime = spectral.MixingTimeEstimate(sub.G, spectral.Lazy)
	}
	return splitOut{
		clusters: []*Cluster{{Nodes: nodes, Sub: sub, Cert: cert}},
		sweeps:   sweeps,
	}
}

// buildLedger renders the decomposition into its cost ledger. The sweep
// work is the only real charge; certificates and the cross-edge count
// export as informational (Mul 0) spans under decomp/.
func (dec *Decomposition) buildLedger() *cost.Ledger {
	led := cost.New("decomp", "sweep passes")
	led.Charge(dec.SweepPasses)
	certs := led.Open("certificates", "", 0)
	for _, c := range dec.Clusters {
		sp := certs.NewChild(fmt.Sprintf("cluster-%02d", c.Index), "", 0)
		sp.NewChild("nodes", "nodes", 0).Add(len(c.Nodes))
		sp.NewChild("edges", "edges", 0).Add(c.Sub.G.M())
		sp.NewChild("boundary", "edges", 0).Add(len(c.Sub.Boundary()))
		sp.NewChild("mixing-time-estimate", "walk steps", 0).Add(c.Cert.MixingTime)
		sp.NewChild("conductance-sweep-ppm", "ppm", 0).Add(int(c.Cert.PhiSweep * 1e6))
		sp.NewChild("reason", "code", 0).Add(int(c.Cert.Reason))
	}
	led.Close()
	led.Open("cross-edges", "edges", 0)
	led.Charge(len(dec.CrossEdges))
	led.Close()
	led.CloseExpect(dec.SweepPasses)
	return led
}
