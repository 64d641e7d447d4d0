// Package cliquemu implements clique emulation (Theorem 1.3): every node
// of a graph G must deliver one O(log n)-bit message to every other node,
// i.e., one round of the congested-clique model is simulated on top of G.
//
// Two algorithms are provided:
//
//   - Hierarchical: the paper's approach — all n·(n−1) messages are routed
//     with the §3.2 hierarchical routing scheme, split into enough random
//     phases that each phase respects the per-node d_G(v)·O(log n) demand
//     bound (the footnote-3 extension). The conference paper defers the
//     optimized dense-routing construction to its full version; this
//     phased instantiation preserves the claimed n/h(G)·polylog shape and
//     is the documented substitution.
//
//   - Direct: a routing-scheme-free baseline that sends every message
//     along a breadth-first shortest path and schedules all n·(n−1)
//     packets store-and-forward under CONGEST edge capacities.
//
// The cut lower bound n/h(G) (up to log factors) and the Balliu et al.
// comparison curve min{1/p², np} are exposed for the experiments.
package cliquemu

import (
	"fmt"
	"math"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/pathsched"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
)

// Result summarizes one clique-emulation run.
type Result struct {
	// Rounds is the measured CONGEST round count on the base graph.
	Rounds int
	// Messages is the number of point-to-point deliveries (n·(n−1)).
	Messages int
	// Phases is the number of routing phases used (hierarchical only).
	Phases int
	// Costs is the run's cost ledger; Rounds is its root total. For
	// Hierarchical runs it grafts the phased-routing ledger, for Direct
	// runs it holds the single BFS schedule span.
	Costs *cost.Ledger
}

// AllToAll generates the clique-emulation workload: one request per
// ordered node pair, with destination virtual indices assigned round-robin
// so each virtual node receives ≈ (n−1)/d(v) messages.
func AllToAll(g *graph.Graph) []route.Request {
	n := g.N()
	reqs := make([]route.Request, 0, n*(n-1))
	nextIndex := make([]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			idx := nextIndex[v] % g.Degree(v)
			nextIndex[v]++
			reqs = append(reqs, route.Request{SrcNode: u, DstNode: v, DstIndex: idx})
		}
	}
	return reqs
}

// Hierarchical emulates the clique over a prebuilt hierarchy. The number
// of phases is ⌈(n−1)/(minDegree·log₂ n)⌉ so that per phase every node
// sends and receives at most ≈ d_G(v)·log n messages.
func Hierarchical(h *embed.Hierarchy, src *rngutil.Source) (*Result, error) {
	g := h.Base
	n := g.N()
	logN := int(math.Max(1, math.Log2(float64(n))))
	phases := (n - 1 + g.MinDegree()*logN - 1) / (g.MinDegree() * logN)
	if phases < 1 {
		phases = 1
	}
	reqs := AllToAll(g)
	rep, err := route.RoutePhased(h, reqs, phases, src)
	if err != nil {
		return nil, fmt.Errorf("cliquemu: %w", err)
	}
	led := cost.New("clique-emulation", "base rounds")
	led.Attach(rep.Costs, cost.Root)
	rounds := led.CloseExpect(rep.BaseRounds)
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("cliquemu: cost ledger: %w", err)
	}
	return &Result{
		Rounds:   rounds,
		Messages: rep.Delivered,
		Phases:   phases,
		Costs:    led,
	}, nil
}

// Direct emulates the clique by routing every message along a BFS
// shortest path and scheduling all packets under unit edge capacities.
// This is the natural baseline: optimal up to scheduling slack for small
// graphs, with cost governed by the worst edge congestion.
func Direct(g *graph.Graph) (*Result, error) {
	if !g.IsConnected() {
		return nil, graph.ErrDisconnected
	}
	n := g.N()
	paths := make([][]int32, 0, n*(n-1))
	for u := 0; u < n; u++ {
		parent, _ := g.BFSTree(u)
		for v := 0; v < n; v++ {
			if u != v {
				paths = append(paths, graph.PathTo(parent, v))
			}
		}
	}
	led := cost.New("clique-direct", "base rounds")
	led.Open("bfs-schedule", "base rounds", 1)
	res := pathsched.Schedule(paths)
	led.Charge(res.Makespan)
	led.CloseExpect(res.Makespan)
	rounds := led.Close()
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("cliquemu: cost ledger: %w", err)
	}
	return &Result{
		Rounds:   rounds,
		Messages: res.Delivered,
		Costs:    led,
	}, nil
}

// CutLowerBound returns n/h for edge expansion h: any algorithm delivering
// n messages across every (S, V∖S) cut needs at least ≈ |S|·(n−|S|)/e(S,V∖S)
// ≥ n/(2h) rounds.
func CutLowerBound(n int, h float64) float64 {
	if h <= 0 {
		return math.Inf(1)
	}
	return float64(n) / (2 * h)
}

// BalliuBound returns the Balliu et al. [9] emulation bound
// O(min{1/p², np}) for Erdős–Rényi graphs, used as the comparison curve in
// experiment E7.
func BalliuBound(n int, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return math.Min(1/(p*p), float64(n)*p)
}

// PaperBound returns the corollary curve O(1/p + log n) claimed by the
// paper for G(n,p) above the connectivity threshold.
func PaperBound(n int, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	return 1/p + math.Log2(float64(n))
}
