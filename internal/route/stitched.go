package route

// Cross-cluster permutation routing over the cluster-scoped tier: packets
// travel within clusters through the per-cluster hierarchies (the §3.2
// router) and across clusters over the decomposition's boundary edges.
//
// The run proceeds in waves. In each wave every packet is inside some
// cluster: packets already in their destination cluster are routed to
// their destination node, and transiting packets are routed to the inside
// endpoint of a boundary edge leading toward the destination cluster
// (chosen round-robin within the bundle so a wide boundary spreads load),
// then hop across it. Clusters are edge-disjoint, so all per-cluster
// batches of one wave run in parallel and the wave's intra-cluster cost
// is the maximum batch cost; all boundary edges fire in parallel and the
// hop cost is the maximum per-edge directed load. Waves are bounded by
// the quotient graph's diameter: every packet gets one cluster closer
// per wave.

import (
	"fmt"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/pathsched"
	"almostmix/internal/rngutil"
)

// PartitionedReport is the measured outcome of a stitched routing run.
type PartitionedReport struct {
	// Delivered is the number of packets confirmed at their destination
	// node (all of them, or RoutePartitioned returns an error).
	Delivered int
	// Waves is the number of cluster-batch + boundary-hop phases.
	Waves int
	// BaseRounds is the end-to-end cost in base-graph rounds: the sum
	// over waves of (max per-cluster batch cost + max boundary load).
	BaseRounds int
	// ClusterRounds is the intra-cluster share of BaseRounds.
	ClusterRounds int
	// BoundaryRounds is the boundary-hop share of BaseRounds.
	BoundaryRounds int
	// MaxBoundaryLoad is the largest directed per-edge load of any
	// single boundary hop phase.
	MaxBoundaryLoad int
	// ClusterBatches counts per-cluster routing batches across all waves.
	ClusterBatches int
	// Costs is the run's ledger, rooted at "decomp-route" (base rounds):
	// one span per wave with the charged cluster maximum, informational
	// per-cluster batch ledgers, and the boundary-hop charge.
	Costs *cost.Ledger
}

// stitchPacket is one request's mutable routing state.
type stitchPacket struct {
	req  int // index into reqs
	cur  int // current base node
	dst  int // destination cluster
	done bool
}

// RoutePartitioned delivers every request over the cluster-scoped tier
// pe. Requests address base-graph nodes; DstIndex must be a valid port of
// DstNode in the base graph (it is folded onto the destination's
// cluster-local virtual copy for the final intra-cluster leg). The base
// graph must be connected for all destinations to be reachable.
func RoutePartitioned(pe *embed.Partitioned, reqs []Request, src *rngutil.Source) (*PartitionedReport, error) {
	g := pe.Base
	for i, q := range reqs {
		if q.SrcNode < 0 || q.SrcNode >= g.N() || q.DstNode < 0 || q.DstNode >= g.N() {
			return nil, fmt.Errorf("route: request %d endpoints (%d,%d) out of range", i, q.SrcNode, q.DstNode)
		}
		if q.DstIndex < 0 || q.DstIndex >= g.Degree(q.DstNode) {
			return nil, fmt.Errorf("route: request %d virtual index %d out of range for node %d (degree %d)",
				i, q.DstIndex, q.DstNode, g.Degree(q.DstNode))
		}
	}

	hops := newQuotientHops(pe)
	pkts := make([]stitchPacket, len(reqs))
	for i, q := range reqs {
		pkts[i] = stitchPacket{req: i, cur: q.SrcNode, dst: pe.ClusterOf(q.DstNode)}
	}

	led := cost.New("decomp-route", "base rounds")
	rep := &PartitionedReport{}
	for remaining := len(pkts); remaining > 0; {
		if rep.Waves > pe.Quotient.N()+1 {
			return nil, fmt.Errorf("route: stitched routing did not converge after %d waves", rep.Waves)
		}
		led.Open(fmt.Sprintf("wave-%02d", rep.Waves), "base rounds", 1)
		delivered, err := runWave(pe, reqs, pkts, hops, led, rep, src.Child("wave", uint64(rep.Waves)))
		if err != nil {
			return nil, err
		}
		remaining -= delivered
		rep.Waves++
	}
	total := rep.ClusterRounds + rep.BoundaryRounds
	led.CloseExpect(total)
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("route: decomp-route ledger: %w", err)
	}
	rep.BaseRounds = total
	rep.Delivered = len(reqs)
	rep.Costs = led
	return rep, nil
}

// runWave routes one wave: per-cluster batches, then boundary hops.
// It returns the number of packets delivered this wave.
func runWave(pe *embed.Partitioned, reqs []Request, pkts []stitchPacket, hops *quotientHops,
	led *cost.Ledger, rep *PartitionedReport, src *rngutil.Source) (int, error) {
	// Assign each live packet its local target within its current
	// cluster: the destination node, or the inside endpoint of the
	// boundary edge toward the next cluster. crossOn[i] is the base
	// cross-edge packet i hops after the batch (-1 for none).
	nc := len(pe.Clusters)
	batches := make([][]Request, nc)  // cluster-local requests
	crossOn := make([]int, len(pkts)) // assigned cross edge, -1 = terminal
	bundleRR := make(map[[2]int]int)  // (quotient edge, from-cluster) round-robin
	for i := range pkts {
		p := &pkts[i]
		if p.done {
			continue
		}
		crossOn[i] = -1
		ci := pe.ClusterOf(p.cur)
		sub := pe.Clusters[ci].Cluster.Sub
		var target int // base node
		var dstIndex int
		if ci == p.dst {
			target = reqs[p.req].DstNode
			if deg := sub.G.Degree(sub.Local(target)); deg > 0 {
				dstIndex = reqs[p.req].DstIndex % deg
			}
		} else {
			qe := hops.edgeToward(ci, p.dst)
			bundle := pe.Bundles[qe]
			rr := [2]int{qe, ci}
			eid := bundle[bundleRR[rr]%len(bundle)]
			bundleRR[rr]++
			crossOn[i] = eid
			e := pe.Base.Edge(eid)
			target = int(e.U)
			if pe.ClusterOf(target) != ci {
				target = int(e.V)
			}
		}
		batches[ci] = append(batches[ci], Request{
			SrcNode: sub.Local(p.cur), DstNode: sub.Local(target), DstIndex: dstIndex,
		})
		p.cur = target
	}

	// Run the batches (conceptually in parallel: clusters are
	// edge-disjoint, so the wave's cost is the maximum batch cost).
	maxCluster := 0
	led.Open("clusters", "base rounds", 1)
	led.Open("per-cluster", "base rounds", 0)
	for ci, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		rounds, batchCosts, err := runClusterBatch(pe.Clusters[ci], batch, src.Child("cluster", uint64(ci)))
		if err != nil {
			return 0, fmt.Errorf("route: cluster %d batch: %w", ci, err)
		}
		rep.ClusterBatches++
		led.Open(fmt.Sprintf("cluster-%02d", ci), "base rounds", 1)
		if batchCosts != nil {
			led.Attach(batchCosts, cost.Root)
		} else {
			led.Charge(rounds)
		}
		led.Close()
		if rounds > maxCluster {
			maxCluster = rounds
		}
	}
	led.Close()
	led.Charge(maxCluster)
	led.CloseExpect(maxCluster)

	// Boundary hops: all cross edges fire in parallel; packets sharing a
	// directed edge queue, so the phase costs the maximum directed load.
	load := make(map[int]int)
	maxLoad := 0
	delivered := 0
	for i := range pkts {
		p := &pkts[i]
		if p.done {
			continue
		}
		if crossOn[i] < 0 {
			p.done = true
			delivered++
			continue
		}
		e := pe.Base.Edge(crossOn[i])
		other := int(e.U)
		if other == p.cur {
			other = int(e.V)
		}
		// Direction-sensitive key: opposite directions of one edge
		// carry messages simultaneously in CONGEST.
		key := crossOn[i] << 1
		if p.cur > other {
			key |= 1
		}
		load[key]++
		if load[key] > maxLoad {
			maxLoad = load[key]
		}
		p.cur = other
	}
	led.Open("boundary-hop", "base rounds", 1)
	led.Charge(maxLoad)
	led.CloseExpect(maxLoad)
	led.CloseExpect(maxCluster + maxLoad)

	rep.ClusterRounds += maxCluster
	rep.BoundaryRounds += maxLoad
	if maxLoad > rep.MaxBoundaryLoad {
		rep.MaxBoundaryLoad = maxLoad
	}
	return delivered, nil
}

// runClusterBatch routes one cluster's batch and returns its measured
// cost in base rounds, plus the batch's ledger for hierarchy clusters
// (nil for direct tiers, whose cost is a bare schedule).
func runClusterBatch(ce *embed.ClusterEmbedding, batch []Request, src *rngutil.Source) (int, *cost.Ledger, error) {
	if ce.Direct {
		sub := ce.Cluster.Sub
		paths := make([][]int32, 0, len(batch))
		for _, q := range batch {
			if q.SrcNode == q.DstNode {
				continue
			}
			// A shortest path inside the (small) direct cluster.
			parent, _ := sub.G.BFSTree(q.SrcNode)
			path := graph.PathTo(parent, q.DstNode)
			if path == nil {
				return 0, nil, fmt.Errorf("route: node %d unreachable from %d in direct cluster", q.DstNode, q.SrcNode)
			}
			paths = append(paths, path)
		}
		if len(paths) == 0 {
			return 0, nil, nil
		}
		res := pathsched.Schedule(paths)
		return res.Makespan, nil, nil
	}
	rep, err := Route(ce.H, batch, src)
	if err != nil {
		return 0, nil, err
	}
	return rep.BaseRounds, rep.Costs, nil
}

// quotientHops precomputes, for every destination cluster, the BFS
// next-hop quotient edge from every other cluster (shortest cluster path;
// deterministic because the quotient's adjacency order is).
type quotientHops struct {
	q *graph.Graph
	// via[d][c] is the quotient edge c uses toward destination d, -1 at d.
	via [][]int32
}

func newQuotientHops(pe *embed.Partitioned) *quotientHops {
	q := pe.Quotient
	h := &quotientHops{q: q, via: make([][]int32, q.N())}
	for d := range h.via {
		_, h.via[d] = q.BFSTree(d)
	}
	return h
}

// edgeToward returns the quotient edge cluster c crosses next toward
// destination cluster d.
func (h *quotientHops) edgeToward(c, d int) int { return int(h.via[d][c]) }
