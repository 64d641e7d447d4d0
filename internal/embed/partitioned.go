package embed

import (
	"fmt"

	"almostmix/internal/cost"
	"almostmix/internal/decomp"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// ClusterEmbedding is one cluster's embedded tier: either a full §3.1
// hierarchy built on the cluster's induced subgraph, or — when Build
// rejects the cluster (too small for the walk machinery) — a direct tier
// that routes along BFS paths of the cluster graph. Node IDs inside H are
// the cluster's local IDs; the Subgraph in Cluster translates back.
type ClusterEmbedding struct {
	// Cluster is the decomposition cluster this tier covers.
	Cluster *decomp.Cluster
	// H is the cluster-local hierarchy, nil when Direct.
	H *Hierarchy
	// Direct marks a BFS-routed fallback tier (tiny clusters).
	Direct bool
	// DirectRounds is the construction cost charged for a direct tier:
	// the cluster diameter (BFS flood to establish routing trees).
	// Zero for hierarchy tiers.
	DirectRounds int
}

// ConstructionRounds is the tier's construction cost in base-graph
// rounds: the hierarchy's measured construction, or the BFS flood for a
// direct tier.
func (ce *ClusterEmbedding) ConstructionRounds() int {
	if ce.Direct {
		return ce.DirectRounds
	}
	return ce.H.ConstructionRoundsBase()
}

// Partitioned is the cluster-scoped embedded tier: one embedding per
// decomposition cluster plus the boundary layer that stitches them — a
// quotient graph with one node per cluster and one edge per adjacent
// cluster pair, each quotient edge bundling the base cross edges between
// the pair. Cross-cluster routing and MST run within clusters through
// the per-cluster embeddings and across clusters through the bundles.
type Partitioned struct {
	// Base is the decomposed base graph.
	Base *graph.Graph
	// Dec is the decomposition the tier was built on.
	Dec *decomp.Decomposition
	// Clusters holds one embedding per decomposition cluster, same order.
	Clusters []*ClusterEmbedding
	// Quotient has one node per cluster and one edge per adjacent
	// cluster pair (unit weights; multiplicity lives in Bundles).
	Quotient *graph.Graph
	// Bundles maps each quotient edge ID to the base cross-edge IDs it
	// bundles, ascending.
	Bundles [][]int
	// Costs is the tier's construction ledger, rooted at "decomp-build"
	// (base rounds): clusters build in parallel on disjoint edge sets,
	// so the charged cost is the maximum per-cluster construction, with
	// every cluster's own construction ledger grafted informationally,
	// plus the decomposition's certificate ledger.
	Costs *cost.Ledger
}

// BuildPartitioned builds one embedding per cluster of dec and assembles
// the boundary layer. Each cluster draws randomness from its own
// src.Child("cluster", i) stream, so the result is independent of build
// order and reproducible. Clusters of at most two nodes, and clusters
// the hierarchy Build rejects, fall back to direct BFS tiers rather
// than failing the whole build.
func BuildPartitioned(dec *decomp.Decomposition, p Params, src *rngutil.Source) (*Partitioned, error) {
	pe := &Partitioned{Base: dec.Base, Dec: dec}
	for i, c := range dec.Clusters {
		ce := &ClusterEmbedding{Cluster: c}
		// Clusters of ≤ 2 nodes get direct tiers outright: a hierarchy
		// there is pure overhead, BFS routing is exact in ≤ 1 round.
		// Larger clusters the hierarchy Build still rejects fall back
		// the same way.
		var h *Hierarchy
		var err error
		if c.Sub.G.N() > 2 {
			h, err = Build(c.Sub.G, p, src.Child("cluster", uint64(i)))
		}
		if h == nil || err != nil {
			ce.Direct = true
			if c.Sub.G.N() >= 2 {
				ce.DirectRounds = c.Sub.G.Diameter()
			}
		} else {
			ce.H = h
		}
		pe.Clusters = append(pe.Clusters, ce)
	}
	pe.buildQuotient()
	pe.Costs = pe.buildLedger()
	if err := pe.Costs.Err(); err != nil {
		return nil, fmt.Errorf("embed: decomp-build ledger: %w", err)
	}
	return pe, nil
}

// buildQuotient assembles the cluster quotient graph and its bundles.
// Iterating CrossEdges ascending makes bundle membership ascending and
// quotient edge order deterministic (first cross edge between a pair
// creates the quotient edge).
func (pe *Partitioned) buildQuotient() {
	var edges []graph.Edge
	index := make(map[[2]int]int)
	for _, id := range pe.Dec.CrossEdges {
		e := pe.Base.Edge(id)
		a, b := int(pe.Dec.ClusterOf[e.U]), int(pe.Dec.ClusterOf[e.V])
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		qi, ok := index[key]
		if !ok {
			qi = len(edges)
			edges = append(edges, graph.Edge{U: a, V: b, W: 1})
			index[key] = qi
			pe.Bundles = append(pe.Bundles, nil)
		}
		pe.Bundles[qi] = append(pe.Bundles[qi], id)
	}
	pe.Quotient = graph.FromEdges(len(pe.Clusters), edges)
}

// buildLedger renders the tier's construction into the decomp-build
// ledger. Cluster constructions touch only intra-cluster edges, which
// are disjoint across clusters, so they run in parallel and the charged
// cost is the maximum; the per-cluster ledgers travel as informational
// (Mul 0) grafts so traces keep the full breakdown.
func (pe *Partitioned) buildLedger() *cost.Ledger {
	max := pe.ConstructionRoundsBase()
	led := cost.New("decomp-build", "base rounds")

	led.Open("clusters", "base rounds", 1)
	led.Charge(max)
	led.CloseExpect(max)

	led.Open("per-cluster", "base rounds", 0)
	for i, ce := range pe.Clusters {
		led.Open(fmt.Sprintf("cluster-%02d", i), "base rounds", 1)
		if ce.Direct {
			led.Open("direct-bfs", "base rounds", 1)
			led.Charge(ce.DirectRounds)
			led.Close()
		} else {
			led.Attach(ce.H.Costs, cost.Root)
		}
		led.CloseExpect(ce.ConstructionRounds())
	}
	led.Close()

	led.Open("quotient-edges", "edges", 0)
	led.Charge(pe.Quotient.M())
	led.Close()

	led.Open("decomposition", "sweep passes", 0)
	led.Attach(pe.Dec.Costs, cost.Root)
	led.Close()

	led.CloseExpect(max)
	return led
}

// ConstructionRoundsBase is the tier's construction cost in base-graph
// rounds: the maximum per-cluster construction (clusters build on
// disjoint edge sets, in parallel).
func (pe *Partitioned) ConstructionRoundsBase() int {
	max := 0
	for _, ce := range pe.Clusters {
		if r := ce.ConstructionRounds(); r > max {
			max = r
		}
	}
	return max
}

// ClusterOf returns the cluster index of base node v.
func (pe *Partitioned) ClusterOf(v int) int { return int(pe.Dec.ClusterOf[v]) }
