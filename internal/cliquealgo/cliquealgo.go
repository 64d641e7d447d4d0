// Package cliquealgo runs congested-clique algorithms on top of the
// clique emulation of Theorem 1.3, realizing the paper's motivation for
// fast clique emulation: any algorithm designed for the congested-clique
// model (Lotker et al. and the long line of follow-ups cited in §1) can
// be executed over a sparse network by paying the measured emulation cost
// once per clique round.
//
// Two algorithms are provided:
//
//   - MST: Borůvka on the clique. Per iteration every node learns all
//     fragment IDs (one clique round), locally computes its candidate
//     minimum outgoing edge, ships candidates to fragment leaders (one
//     round), and leaders broadcast merge decisions (one round). The
//     3·O(log n) clique rounds make it a natural consumer of emulation.
//
//   - SumAggregate: every node contributes a value; all nodes learn the
//     sum in a single clique round — the simplest "clique axiom" demo.
package cliquealgo

import (
	"fmt"

	"almostmix/internal/cliquemu"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
)

// Result reports a clique-algorithm execution over an emulated clique.
type Result struct {
	// CliqueRounds is the number of congested-clique rounds consumed.
	CliqueRounds int
	// EmulatedRounds is the measured base-graph cost: CliqueRounds times
	// the measured cost of one emulated clique round.
	EmulatedRounds int
	// PerCliqueRound is the measured cost of one emulated round.
	PerCliqueRound int
}

// MSTResult is Result plus the tree computed by the clique algorithm.
type MSTResult struct {
	Result
	Edges  []int
	Weight float64
}

// measureRound emulates one clique round and returns its measured cost.
func measureRound(h *embed.Hierarchy, seed uint64) (int, error) {
	res, err := cliquemu.Hierarchical(h, rngutil.NewSource(seed))
	if err != nil {
		return 0, fmt.Errorf("cliquealgo: %w", err)
	}
	return res.Rounds, nil
}

// MST computes the minimum spanning tree of h's weighted base graph with
// Borůvka-on-the-clique — mstbase's kernel under a clique charging policy
// — charging every clique round at the measured emulation cost. The tree
// equals Kruskal's (verified in tests); Edges come in mstbase's edge order.
func MST(h *embed.Hierarchy, seed uint64) (*MSTResult, error) {
	g := h.Base
	if !g.IsConnected() {
		return nil, fmt.Errorf("cliquealgo: %w", graph.ErrDisconnected)
	}
	perRound, err := measureRound(h, seed)
	if err != nil {
		return nil, err
	}
	out := &MSTResult{Result: Result{PerCliqueRound: perRound}}

	// One Borůvka iteration is three clique rounds. Round 1: every node
	// announces its fragment ID to all, so each node can classify its
	// incident edges as outgoing. Round 2: every node sends its best
	// incident outgoing edge to its fragment's leader (the minimum node ID
	// in the fragment, known after round 1). Round 3: leaders broadcast
	// the fragment's chosen edge.
	out.Edges = mstbase.Boruvka(g, func(_, _ int) { out.CliqueRounds += 3 })
	out.Weight = g.TotalWeight(out.Edges)
	out.EmulatedRounds = out.CliqueRounds * perRound
	return out, nil
}

// SumAggregate computes the global sum of per-node values in one clique
// round: every node sends its value to every other node, then sums
// locally. Returns the sum and the measured cost.
func SumAggregate(h *embed.Hierarchy, values []float64, seed uint64) (float64, *Result, error) {
	if len(values) != h.Base.N() {
		return 0, nil, fmt.Errorf("cliquealgo: %d values for %d nodes", len(values), h.Base.N())
	}
	perRound, err := measureRound(h, seed)
	if err != nil {
		return 0, nil, err
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total, &Result{
		CliqueRounds:   1,
		EmulatedRounds: perRound,
		PerCliqueRound: perRound,
	}, nil
}
