package mst

// Cross-cluster MST over the cluster-scoped tier: a per-cluster minimum
// spanning forest phase followed by Borůvka on the sparsified stitch
// graph.
//
// Correctness rests on the cycle property: an edge that is not in its
// cluster's local MST closes a cycle inside the cluster on which it is
// the heaviest edge, so it is in no MST of the base graph. The union of
// the per-cluster trees and all cross edges therefore contains an MST,
// and the MST of that sparsified graph is exactly the MST of the base
// graph — the naive alternative (contract clusters, connect them by
// their lightest boundary edges) is NOT minimum in general.
//
// Costs: the per-cluster phase runs the hierarchical MST (mst.Run) on
// each cluster's embedding — clusters are edge-disjoint, so the phase
// costs the maximum cluster's algorithm rounds. Direct tiers (clusters
// too small for a hierarchy) run flood-based GHS on the cluster graph.
// The stitch phase is mstbase.GHS on the sparsified graph, whose edges
// are real base-graph edges, so its flood rounds are base rounds.

import (
	"fmt"
	"sort"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
)

// PartitionedResult is the outcome of a cross-cluster MST computation.
type PartitionedResult struct {
	// Edges are the chosen MST edge IDs in the base graph, ascending.
	Edges []int
	// Weight is the total weight of the chosen edges.
	Weight float64
	// Rounds is the total measured base rounds: ClusterRounds +
	// StitchRounds (the tier construction is accounted separately, in
	// Partitioned.Costs, as it is reusable).
	Rounds int
	// ClusterRounds is the per-cluster MSF phase: the maximum cluster's
	// rounds (clusters are edge-disjoint and run in parallel).
	ClusterRounds int
	// StitchRounds is the Borůvka phase on the sparsified graph.
	StitchRounds int
	// StitchIterations counts the stitch phase's Borůvka iterations.
	StitchIterations int
	// SparsifiedEdges is the stitch graph's edge count (per-cluster
	// trees plus cross edges).
	SparsifiedEdges int
	// Costs is the run's ledger, rooted at "decomp-mst" (base rounds):
	// the charged cluster maximum with informational per-cluster
	// ledgers, then the stitch charge.
	Costs *cost.Ledger
}

// RunPartitioned computes the MST of pe's base graph through the
// cluster-scoped tier. Edge weights should be distinct (use
// AssignDistinctRandomWeights) for a unique tree; with ties the reported
// tree is still minimum but tie-breaking differs from Kruskal's.
func RunPartitioned(pe *embed.Partitioned, src *rngutil.Source) (*PartitionedResult, error) {
	g := pe.Base
	if !g.IsConnected() {
		return nil, fmt.Errorf("mst: %w", graph.ErrDisconnected)
	}

	led := cost.New("decomp-mst", "base rounds")
	res := &PartitionedResult{}

	// Phase 1: per-cluster minimum spanning forests. keep marks the base
	// edges surviving the cycle-property filter.
	keep := make([]bool, g.M())
	clusterSpan := led.Open("clusters", "base rounds", 1)
	detail := clusterSpan.NewChild("per-cluster", "base rounds", 0)
	for ci, ce := range pe.Clusters {
		localEdges, rounds, ledRoot, err := clusterMSF(ce, src.Child("cluster", uint64(ci)))
		if err != nil {
			return nil, fmt.Errorf("mst: cluster %d: %w", ci, err)
		}
		for _, le := range localEdges {
			keep[ce.Cluster.Sub.GlobalEdge(le)] = true
		}
		sp := detail.NewChild(fmt.Sprintf("cluster-%02d", ci), "base rounds", 1)
		if ledRoot != nil {
			sp.Children = append(sp.Children, ledRoot)
		} else {
			sp.Add(rounds)
		}
		if rounds > res.ClusterRounds {
			res.ClusterRounds = rounds
		}
	}
	led.Charge(res.ClusterRounds)
	led.CloseExpect(res.ClusterRounds)

	// Phase 2: Borůvka on the sparsified graph — surviving tree edges
	// plus every cross edge, with base weights, in base edge-ID order.
	for _, id := range pe.Dec.CrossEdges {
		keep[id] = true
	}
	sparse := graph.New(g.N())
	toBase := make([]int, 0, g.N())
	for id, e := range g.Edges() {
		if keep[id] {
			sparse.AddEdge(int(e.U), int(e.V), e.W)
			toBase = append(toBase, id)
		}
	}
	res.SparsifiedEdges = sparse.M()
	ghs, err := mstbase.GHS(sparse)
	if err != nil {
		return nil, fmt.Errorf("mst: stitch phase: %w", err)
	}
	res.StitchRounds = ghs.Rounds
	res.StitchIterations = ghs.Iterations
	stitch := led.Open("stitch", "base rounds", 1)
	stitch.NewChild("iterations", "iterations", 0).Add(ghs.Iterations)
	stitch.NewChild("sparsified-edges", "edges", 0).Add(sparse.M())
	led.Charge(ghs.Rounds)
	led.CloseExpect(ghs.Rounds)

	res.Rounds = led.CloseExpect(res.ClusterRounds + res.StitchRounds)
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("mst: decomp-mst ledger: %w", err)
	}
	res.Costs = led

	for _, he := range ghs.Edges {
		res.Edges = append(res.Edges, toBase[he])
	}
	// GHS reports iteration by iteration; report base IDs ascending.
	sort.Ints(res.Edges)
	res.Weight = g.TotalWeight(res.Edges)
	return res, nil
}

// clusterMSF computes one cluster's local MST and its measured cost in
// base rounds: the hierarchical algorithm's rounds for hierarchy tiers
// (whose ledger root is returned for informational grafting), flood GHS
// for direct tiers. Single-node clusters contribute nothing.
func clusterMSF(ce *embed.ClusterEmbedding, src *rngutil.Source) ([]int, int, *cost.Span, error) {
	sub := ce.Cluster.Sub
	if sub.G.N() < 2 {
		return nil, 0, nil, nil
	}
	if ce.Direct {
		r, err := mstbase.GHS(sub.G)
		if err != nil {
			return nil, 0, nil, err
		}
		return r.Edges, r.Rounds, nil, nil
	}
	r, err := Run(ce.H, src)
	if err != nil {
		return nil, 0, nil, err
	}
	return r.Edges, r.AlgorithmRounds, r.Costs.Root, nil
}
