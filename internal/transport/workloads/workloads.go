// Package workloads registers the canonical transport workloads —
// ticker, bfs, broadcast, ghs, walks, plus the fault-aware walks-faults
// and ghs-faults — with internal/transport. Each is a pure function of
// its Spec: the graph, programs, RNG streams, fault plan and payload
// codecs are rebuilt identically on every process of a TCP run, and the
// in-process backends build through the same path, which is what the
// differential suite's byte-equality assertions rest on.
//
// Only the fault-aware workloads accept a FaultSpec: the plain five
// reject one instead of silently ignoring it, because their programs
// carry no retry identity and their budgets no fault slack. The
// fault-aware workloads describe ONE attempt each; RunWalksFaults and
// RunGHSFaults (faultrun.go) add the cross-attempt retry story on top
// and are the repo's only retry drivers — in-process means running them
// over transport.Proc.
//
// Import for side effects from binaries and tests that resolve
// workloads by name.
package workloads

import (
	"encoding/binary"
	"fmt"

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
	transport.Register(transport.Workload{
		Name:   "ticker",
		Build:  buildTicker,
		Encode: congest.EncodeTickPayload,
		Decode: congest.DecodeTickPayload,
	})
	transport.Register(transport.Workload{
		Name:   "bfs",
		Build:  buildBFS,
		Encode: congest.EncodeBFSPayload,
		Decode: congest.DecodeBFSPayload,
	})
	transport.Register(transport.Workload{
		Name:   "broadcast",
		Build:  buildBroadcast,
		Encode: congest.EncodeFloodPayload,
		Decode: congest.DecodeFloodPayload,
	})
	transport.Register(transport.Workload{
		Name:   "ghs",
		Build:  buildGHS,
		Encode: mstbase.EncodeGHSPayload,
		Decode: mstbase.DecodeGHSPayload,
	})
	transport.Register(transport.Workload{
		Name:   "walks",
		Build:  buildWalks,
		Encode: randomwalk.EncodeWalkPayload,
		Decode: randomwalk.DecodeWalkPayload,
	})
	transport.Register(transport.Workload{
		Name:   "walks-faults",
		Build:  buildWalksFaults,
		Encode: randomwalk.EncodeWalkPayload,
		Decode: randomwalk.DecodeWalkPayload,
	})
	transport.Register(transport.Workload{
		Name:   "ghs-faults",
		Build:  buildGHSFaults,
		Encode: mstbase.EncodeGHSPayload,
		Decode: mstbase.DecodeGHSPayload,
	})
}

// noFaults rejects a FaultSpec on a workload that cannot honor one —
// the plain workloads' programs carry no retry identity and their
// budgets no fault slack, so ignoring the spec would silently change
// its meaning.
func noFaults(spec transport.Spec, name string) error {
	if spec.FaultSpec != "" {
		return fmt.Errorf("workloads: %s does not take a fault spec (fault-aware workloads: walks-faults, ghs-faults)", name)
	}
	return nil
}

// buildTicker: every node broadcasts Tick for Steps rounds, then halts.
// No output beyond rounds/messages — the minimal workload the framing
// and lifecycle tests lean on.
func buildTicker(spec transport.Spec) (*transport.Instance, error) {
	if err := noFaults(spec, "ticker"); err != nil {
		return nil, err
	}
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
	if err := noFaults(spec, "bfs"); err != nil {
		return nil, err
	}
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
		// Dist[v] is only valid on the process owning v; ship dist+1 so
		// the unreached sentinel -1 packs as a uvarint.
		Finish: func(lo, hi int) []byte {
			var buf []byte
			for v := lo; v < hi; v++ {
				buf = binary.AppendUvarint(buf, uint64(res.Dist[v]+1))
			}
			return buf
		},
		Merge: func(g *graph.Graph, parts [][]byte) (any, error) {
			vals, err := uvarints(parts, g.N(), "bfs dist")
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
	if err := noFaults(spec, "broadcast"); err != nil {
		return nil, err
	}
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
		Finish: func(lo, hi int) []byte {
			got := 0
			for v := lo; v < hi; v++ {
				if val, ok := out[v].(int); ok && val == spec.Value {
					got++
				}
			}
			return binary.AppendUvarint(nil, uint64(got))
		},
		Merge: func(g *graph.Graph, parts [][]byte) (any, error) {
			vals, err := uvarints(parts, len(parts), "broadcast count")
			if err != nil {
				return nil, err
			}
			res := BroadcastOutput{}
			for _, v := range vals {
				res.Got += int(v)
			}
			return res, nil
		},
	}, nil
}

func buildGHS(spec transport.Spec) (*transport.Instance, error) {
	if err := noFaults(spec, "ghs"); err != nil {
		return nil, err
	}
	if spec.WeightSeed == 0 {
		return nil, fmt.Errorf("workloads: ghs needs a nonzero weight_seed (distinct edge weights)")
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("workloads: ghs needs a connected graph")
	}
	programs, maxRounds := mstbase.GHSPrograms(g, nil)
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		MaxRounds: maxRounds,
		Finish:    ghsFinish(programs),
		Merge:     ghsMerge,
	}, nil
}

// ghsFinish ships the owned nodes' chosen MST edge IDs: a count then
// the IDs, per-node emission order kept. Shared by ghs and ghs-faults.
func ghsFinish(programs []congest.Program) func(lo, hi int) []byte {
	return func(lo, hi int) []byte {
		edges := mstbase.GHSChosenEdges(programs, lo, hi)
		buf := binary.AppendUvarint(nil, uint64(len(edges)))
		for _, e := range edges {
			buf = binary.AppendUvarint(buf, uint64(e))
		}
		return buf
	}
}

// ghsMerge combines the shard-ordered chosen-edge streams. First-seen
// dedup reproduces GHSNetwork's edge list exactly. Edge ids come off the
// wire, so each is range-checked before it indexes the graph.
func ghsMerge(g *graph.Graph, parts [][]byte) (any, error) {
	out := MSTOutput{}
	seen := make(map[int]bool)
	for _, part := range parts {
		count, rest, err := uvarint(part, "ghs edge count")
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < count; j++ {
			var e uint64
			if e, rest, err = uvarint(rest, "ghs edge id"); err != nil {
				return nil, err
			}
			if e >= uint64(g.M()) {
				return nil, fmt.Errorf("workloads: ghs edge id %d outside the graph's %d edges", e, g.M())
			}
			if id := int(e); !seen[id] {
				seen[id] = true
				out.Edges = append(out.Edges, id)
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("workloads: %d trailing bytes in ghs part", len(rest))
		}
	}
	out.Weight = g.TotalWeight(out.Edges)
	return out, nil
}

func buildWalks(spec transport.Spec) (*transport.Instance, error) {
	if err := noFaults(spec, "walks"); err != nil {
		return nil, err
	}
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
		Finish: func(lo, hi int) []byte {
			total := 0
			for v := lo; v < hi; v++ {
				total += arrived[v]
			}
			return binary.AppendUvarint(nil, uint64(total))
		},
		Merge: func(g *graph.Graph, parts [][]byte) (any, error) {
			vals, err := uvarints(parts, len(parts), "walks arrived")
			if err != nil {
				return nil, err
			}
			res := WalksOutput{}
			for _, v := range vals {
				res.Arrived += int(v)
			}
			return res, nil
		},
	}, nil
}

// buildWalksFaults materializes ONE attempt of a faulty walk run:
// WalkCounts tokens per node (default k·deg like "walks"), sequence
// numbers from WalkSeqBase (default 0), the walk RNG offset by Retry,
// and the fault plan from (FaultSpec, FaultSeed). The Finish blob ships
// the absorbed token identities per owned node — RunWalksFaults
// reconciles them and drives the next attempt.
func buildWalksFaults(spec transport.Spec) (*transport.Instance, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if spec.Steps < 0 {
		return nil, fmt.Errorf("workloads: walks-faults needs steps ≥ 0, got %d", spec.Steps)
	}
	counts := spec.WalkCounts
	if counts == nil {
		if spec.K < 1 {
			return nil, fmt.Errorf("workloads: walks-faults needs k ≥ 1 walks per degree (or explicit walk_counts), got %d", spec.K)
		}
		counts = randomwalk.UniformCountTimesDegree(g, spec.K)
	} else if len(counts) != g.N() {
		return nil, fmt.Errorf("workloads: walks-faults got %d walk_counts for %d nodes", len(counts), g.N())
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
		Finish: func(lo, hi int) []byte {
			var buf []byte
			for v := lo; v < hi; v++ {
				buf = binary.AppendUvarint(buf, uint64(len(absorbed[v])))
				for _, id := range absorbed[v] {
					buf = binary.AppendUvarint(buf, uint64(id.Origin))
					buf = binary.AppendUvarint(buf, uint64(id.Seq))
				}
			}
			return buf
		},
		// Shard blobs arrive in node order, so the per-node records simply
		// concatenate across parts; each part must end on a record boundary.
		Merge: func(g *graph.Graph, parts [][]byte) (any, error) {
			out := WalksFaultsOutput{Absorbed: make([][]randomwalk.WalkTokenID, g.N())}
			v := 0
			for _, part := range parts {
				for len(part) > 0 {
					if v >= g.N() {
						return nil, fmt.Errorf("workloads: walks-faults absorbed records beyond %d nodes", g.N())
					}
					count, rest, err := uvarint(part, "walks-faults absorbed count")
					if err != nil {
						return nil, err
					}
					part = rest
					for j := uint64(0); j < count; j++ {
						var origin, seq uint64
						if origin, part, err = uvarint(part, "walks-faults token origin"); err != nil {
							return nil, err
						}
						if seq, part, err = uvarint(part, "walks-faults token seq"); err != nil {
							return nil, err
						}
						out.Absorbed[v] = append(out.Absorbed[v], randomwalk.WalkTokenID{Origin: int32(origin), Seq: int32(seq)})
					}
					v++
				}
			}
			if v != g.N() {
				return nil, fmt.Errorf("workloads: walks-faults absorbed records for %d of %d nodes", v, g.N())
			}
			return out, nil
		},
	}, nil
}

// buildGHSFaults materializes ONE attempt of a faulty GHS run: the
// defensive program variant and stretched round budget when the plan
// has any rule (mstbase.GHSPrograms), and the GHS RNG offset by Retry.
// Output is MSTOutput like "ghs"; RunGHSFaults checks it against the
// oracle and drives retries.
func buildGHSFaults(spec transport.Spec) (*transport.Instance, error) {
	if spec.WeightSeed == 0 {
		return nil, fmt.Errorf("workloads: ghs-faults needs a nonzero weight_seed (distinct edge weights)")
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("workloads: ghs-faults needs a connected graph")
	}
	plan, err := spec.FaultPlan()
	if err != nil {
		return nil, fmt.Errorf("workloads: ghs-faults: %w", err)
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
		Finish:    ghsFinish(programs),
		Merge:     ghsMerge,
	}, nil
}

// uvarint reads one uvarint off b, returning the remainder.
func uvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("workloads: malformed %s", what)
	}
	return v, b[n:], nil
}

// uvarints parses the concatenation of parts as exactly want uvarints.
func uvarints(parts [][]byte, want int, what string) ([]uint64, error) {
	vals := make([]uint64, 0, want)
	for _, part := range parts {
		for len(part) > 0 {
			v, rest, err := uvarint(part, what)
			if err != nil {
				return nil, err
			}
			part = rest
			vals = append(vals, v)
		}
	}
	if len(vals) != want {
		return nil, fmt.Errorf("workloads: %d %s values, want %d", len(vals), what, want)
	}
	return vals, nil
}
