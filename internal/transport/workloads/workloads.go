// Package workloads registers the canonical transport workloads —
// ticker, bfs, broadcast, walks, the fault-aware walks-faults, and ghs,
// which is fault-aware too — with internal/transport. Each is a pure
// function of its Spec: the graph, programs, RNG streams, fault plan,
// payload layouts and harvest records are rebuilt identically on every
// process of a TCP run, and the in-process backends build through the same
// path, which is what the differential suite's byte-equality assertions
// rest on.
//
// Only the fault-aware workloads accept a FaultSpec: the plain four
// reject one instead of silently ignoring it, because their programs
// carry no retry identity and their budgets no fault slack. A fault-aware
// workload describes ONE attempt; RunWalksFaults and RunGHSFaults
// (faultrun.go) add the cross-attempt retry story on top and are the
// repo's only retry drivers — in-process means running them over
// transport.Proc.
//
// Import for side effects from binaries and tests that resolve
// workloads by name.
package workloads

import (
	"fmt"
	"math"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
)

// BFSOutput is the merged outcome of the "bfs" workload.
type BFSOutput struct {
	// Depth is the BFS tree depth; Reached the number of nodes the flood
	// reached (n on a connected graph).
	Depth   int
	Reached int
}

// BroadcastOutput is the merged outcome of the "broadcast" workload.
type BroadcastOutput struct {
	// Got is the number of nodes holding the flooded value at the end.
	Got int
}

// MSTOutput is the merged outcome of the "ghs" workload. Callers derive
// iterations from Result.Rounds with mstbase.GHSIterations.
type MSTOutput struct {
	Edges  []int
	Weight float64
}

// WalksOutput is the merged outcome of the "walks" workload.
type WalksOutput struct {
	// Arrived is the total number of walk tokens that completed.
	Arrived int
}

// WalksFaultsOutput is the merged outcome of one "walks-faults" attempt:
// the identities of every token absorbed this attempt, indexed by the
// absorbing node. RunWalksFaults reconciles them against its outstanding
// set; arrivals are len(Absorbed[v]) minus duplicate deliveries of
// already-settled tokens, which only the driver can tell apart.
type WalksFaultsOutput struct {
	Absorbed [][]randomwalk.WalkTokenID
}

func init() {
	for _, w := range []transport.Workload{
		{Name: "ticker", Build: plain(buildTicker), Layouts: congest.TickLayouts},
		{Name: "bfs", Build: plain(buildBFS), Layouts: congest.BFSLayouts},
		{Name: "broadcast", Build: plain(buildBroadcast), Layouts: congest.FloodLayouts},
		{Name: "ghs", Build: buildGHS, Layouts: mstbase.GHSLayouts},
		{Name: "walks", Build: plain(buildWalks), Layouts: randomwalk.WalkLayouts},
		{Name: "walks-faults", Build: buildWalksFaults, Layouts: randomwalk.WalkLayouts},
	} {
		transport.Register(w)
	}
}

// plain wraps the builder of a workload that cannot honor a FaultSpec so
// that it rejects one: the plain workloads' programs carry no retry
// identity and their budgets no fault slack, so ignoring the spec would
// silently change its meaning.
func plain(build func(transport.Spec) (*transport.Instance, error)) func(transport.Spec) (*transport.Instance, error) {
	return func(spec transport.Spec) (*transport.Instance, error) {
		if spec.FaultSpec != "" {
			return nil, fmt.Errorf("workloads: %s does not take a fault spec (fault-aware workloads: walks-faults, ghs)", spec.Workload)
		}
		return build(spec)
	}
}

// buildTicker: every node broadcasts Tick for Steps rounds, then halts.
// No output beyond rounds/messages — the minimal workload the framing
// and lifecycle tests lean on.
func buildTicker(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if spec.Steps < 1 {
		return nil, fmt.Errorf("workloads: ticker needs steps ≥ 1, got %d", spec.Steps)
	}
	programs := make([]congest.Program, g.N())
	for v := range programs {
		programs[v] = congest.NewTicker(spec.Steps)
	}
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		MaxRounds: spec.Steps + 4,
	}, nil
}

func buildBFS(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if spec.Root < 0 || spec.Root >= g.N() {
		return nil, fmt.Errorf("workloads: bfs root %d outside nodes [0, %d)", spec.Root, g.N())
	}
	programs, res := congest.BFSPrograms(g, spec.Root)
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		MaxRounds: 2*g.N() + 4,
		Quiet:     true,
		// Dist[v] is only valid on the process owning v; the record is
		// dist+1 so the unreached sentinel -1 is a word.
		Harvest: func(buf []uint64, v int) []uint64 { return append(buf, uint64(res.Dist[v]+1)) },
		Reduce: func(g *graph.Graph, perNode [][]uint64) (any, error) {
			vals, err := oneWordEach(g, perNode, "bfs dist")
			if err != nil {
				return nil, err
			}
			out := BFSOutput{}
			for _, d := range vals {
				if d == 0 {
					continue
				}
				out.Reached++
				out.Depth = max(out.Depth, int(d)-1)
			}
			return out, nil
		},
	}, nil
}

func buildBroadcast(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if spec.Root < 0 || spec.Root >= g.N() {
		return nil, fmt.Errorf("workloads: broadcast root %d outside nodes [0, %d)", spec.Root, g.N())
	}
	programs, out := congest.FloodPrograms(g, spec.Root, spec.Value)
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		MaxRounds: 2*g.N() + 4,
		Quiet:     true,
		// The record is whether the node holds the flooded value.
		Harvest: func(buf []uint64, v int) []uint64 {
			if val, ok := congest.FloodValue(out[v]); ok && val == spec.Value {
				return append(buf, 1)
			}
			return append(buf, 0)
		},
		Reduce: func(g *graph.Graph, perNode [][]uint64) (any, error) {
			vals, err := oneWordEach(g, perNode, "broadcast got")
			if err != nil {
				return nil, err
			}
			res := BroadcastOutput{}
			for _, got := range vals {
				if got > 1 {
					return nil, fmt.Errorf("workloads: broadcast got flag %d", got)
				}
				res.Got += int(got)
			}
			return res, nil
		},
	}, nil
}

// buildGHS materializes ONE attempt of a GHS run: the node programs, the
// round budget mstbase.GHSPrograms stretches when the plan has any rule,
// and the GHS RNG offset by Retry. Output is MSTOutput; RunGHSFaults
// checks it against the oracle and drives retries.
func buildGHS(spec transport.Spec) (*transport.Instance, error) {
	if spec.WeightSeed == 0 {
		return nil, fmt.Errorf("workloads: %s needs a nonzero weight_seed (distinct edge weights)", spec.Workload)
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("workloads: %s needs a connected graph", spec.Workload)
	}
	plan, err := spec.FaultPlan()
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", spec.Workload, err)
	}
	programs, budget := mstbase.GHSPrograms(g, plan)
	src := rngutil.NewSource(spec.SrcSeed)
	if spec.Retry > 0 {
		src = src.Child("ghs-retry", uint64(spec.Retry))
	}
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    src,
		Faults:    plan,
		MaxRounds: budget,
		Harvest:   ghsHarvest(programs),
		Reduce:    ghsReduce,
	}, nil
}

// ghsHarvest records a node's chosen MST edge IDs, emission order kept.
func ghsHarvest(programs []congest.Program) func(buf []uint64, v int) []uint64 {
	return func(buf []uint64, v int) []uint64 {
		for _, e := range mstbase.GHSChosenEdges(programs, v, v+1) {
			buf = append(buf, uint64(e))
		}
		return buf
	}
}

// ghsReduce combines the node-ordered chosen-edge streams the way
// GHSNetwork does, through mstbase.GHSTreeEdges. Edge ids may have come
// off the wire, so each is range-checked before it indexes anything.
func ghsReduce(g *graph.Graph, perNode [][]uint64) (any, error) {
	if len(perNode) != g.N() {
		return nil, fmt.Errorf("workloads: ghs records for %d of %d nodes", len(perNode), g.N())
	}
	var chosen []int
	for _, rec := range perNode {
		for _, e := range rec {
			if e >= uint64(g.M()) {
				return nil, fmt.Errorf("workloads: ghs edge id %d outside the graph's %d edges", e, g.M())
			}
			chosen = append(chosen, int(e))
		}
	}
	out := MSTOutput{Edges: mstbase.GHSTreeEdges(g.M(), chosen)}
	out.Weight = g.TotalWeight(out.Edges)
	return out, nil
}

func buildWalks(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if spec.K < 1 {
		return nil, fmt.Errorf("workloads: walks needs k ≥ 1 walks per degree, got %d", spec.K)
	}
	if spec.Steps < 0 {
		return nil, fmt.Errorf("workloads: walks needs steps ≥ 0, got %d", spec.Steps)
	}
	programs, arrived, _, maxRounds := randomwalk.WalkPrograms(g, randomwalk.UniformCountTimesDegree(g, spec.K), nil, spec.Steps, nil)
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		MaxRounds: maxRounds,
		Quiet:     true,
		Harvest:   func(buf []uint64, v int) []uint64 { return append(buf, uint64(arrived[v])) },
		Reduce: func(g *graph.Graph, perNode [][]uint64) (any, error) {
			vals, err := oneWordEach(g, perNode, "walks arrived")
			if err != nil {
				return nil, err
			}
			res := WalksOutput{}
			for _, a := range vals {
				res.Arrived += int(a)
			}
			return res, nil
		},
	}, nil
}

// buildWalksFaults materializes ONE attempt of a faulty walk run:
// WalkCounts tokens per node (default k·deg like "walks"), sequence
// numbers from WalkSeqBase (default 0), the walk RNG offset by Retry,
// and the fault plan from (FaultSpec, FaultSeed). A node's record is the
// identities of the tokens it absorbed — RunWalksFaults reconciles them
// and drives the next attempt.
func buildWalksFaults(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	counts, err := faultyWalkCounts(spec, g)
	if err != nil {
		return nil, err
	}
	seqBase := spec.WalkSeqBase
	if seqBase == nil {
		seqBase = make([]int, g.N())
	} else if len(seqBase) != g.N() {
		return nil, fmt.Errorf("workloads: walks-faults got %d walk_seq_base values for %d nodes", len(seqBase), g.N())
	}
	plan, err := spec.FaultPlan()
	if err != nil {
		return nil, fmt.Errorf("workloads: walks-faults: %w", err)
	}
	programs, _, absorbed, budget := randomwalk.WalkPrograms(g, counts, seqBase, spec.Steps, plan)
	src := rngutil.NewSource(spec.SrcSeed)
	if spec.Retry > 0 {
		src = src.Child("walk-retry", uint64(spec.Retry))
	}
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    src,
		Faults:    plan,
		MaxRounds: budget,
		Quiet:     true,
		Harvest: func(buf []uint64, v int) []uint64 {
			for _, id := range absorbed[v] {
				buf = append(buf, uint64(id.Origin), uint64(id.Seq))
			}
			return buf
		},
		Reduce: func(g *graph.Graph, perNode [][]uint64) (any, error) {
			if len(perNode) != g.N() {
				return nil, fmt.Errorf("workloads: walks-faults absorbed records for %d of %d nodes", len(perNode), g.N())
			}
			out := WalksFaultsOutput{Absorbed: make([][]randomwalk.WalkTokenID, g.N())}
			for v, rec := range perNode {
				if len(rec)%2 != 0 {
					return nil, fmt.Errorf("workloads: walks-faults record of node %d has %d words, want (origin, seq) pairs", v, len(rec))
				}
				for i := 0; i < len(rec); i += 2 {
					origin, seq := rec[i], rec[i+1]
					if origin >= uint64(g.N()) || seq > math.MaxInt32 {
						return nil, fmt.Errorf("workloads: walks-faults token (%d, %d) absorbed at node %d: origin outside %d nodes or seq beyond int32", origin, seq, v, g.N())
					}
					out.Absorbed[v] = append(out.Absorbed[v], randomwalk.WalkTokenID{Origin: int32(origin), Seq: int32(seq)})
				}
			}
			return out, nil
		},
	}, nil
}

// faultyWalkCounts is the tokens-per-node vector of a walks-faults spec
// (WalkCounts, default k·deg like "walks"), validated once for the
// builder and for RunWalksFaults.
func faultyWalkCounts(spec transport.Spec, g *graph.Graph) ([]int, error) {
	if spec.Steps < 0 {
		return nil, fmt.Errorf("workloads: walks-faults needs steps ≥ 0, got %d", spec.Steps)
	}
	if spec.WalkCounts == nil {
		if spec.K < 1 {
			return nil, fmt.Errorf("workloads: walks-faults needs k ≥ 1 walks per degree (or explicit walk_counts), got %d", spec.K)
		}
		return randomwalk.UniformCountTimesDegree(g, spec.K), nil
	}
	if len(spec.WalkCounts) != g.N() {
		return nil, fmt.Errorf("workloads: walks-faults got %d walk_counts for %d nodes", len(spec.WalkCounts), g.N())
	}
	return spec.WalkCounts, nil
}

// oneWordEach checks the shape the scalar workloads harvest — exactly n
// records of exactly one word — and returns the words in node order.
func oneWordEach(g *graph.Graph, perNode [][]uint64, what string) ([]uint64, error) {
	if len(perNode) != g.N() {
		return nil, fmt.Errorf("workloads: %s records for %d of %d nodes", what, len(perNode), g.N())
	}
	vals := make([]uint64, len(perNode))
	for v, rec := range perNode {
		if len(rec) != 1 {
			return nil, fmt.Errorf("workloads: %s record of node %d has %d words, want 1", what, v, len(rec))
		}
		vals[v] = rec[0]
	}
	return vals, nil
}
