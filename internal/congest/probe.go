package congest

// The probe layer: per-round observability for simulator runs.
//
// The paper's claims are statements about per-round trajectories — token
// load per phase (Lemma 2.5), congestion per edge, halting waves — not
// just end-of-run totals, so the simulator exposes a hook interface that
// reports what happened in every round. The contract is built around the
// determinism guarantee of the engine:
//
//   - Every hook is invoked on the calling goroutine only, between the
//     round barriers, never from a part's own goroutine. Probes need no
//     locking and observe every partitioning identically: the same probe
//     yields bit-identical event sequences for every worker count and for
//     shards run over the wire (asserted by the differential suites).
//   - Event order within a round is fixed: per node in ID order, first
//     that node's phase marks (in emission order), then its halt event if
//     it halted this round; then one RoundEnd with the aggregated record.
//   - Per-node event collection is sharded exactly like message
//     accounting: marks and halt flags live on the Ctx touched only by
//     the owning part, and the caller drains them after the step
//     barrier, so the engine stays free of shared mutable state.
//   - With no probe attached the engine skips all collection — the only
//     residual cost is one nil check per round — so measurement runs pay
//     nothing for the layer's existence (BenchmarkCongestEngine guards
//     this).
//
// Probes must not mutate the network or retain what they are handed: the
// *RoundRecord itself and its InboxSizes/EdgeLoad slices are engine-owned
// buffers recycled every round (part of the zero-alloc steady-state
// contract, DESIGN.md §3), valid only during the RoundEnd call.

import (
	"fmt"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
)

// RunInfo describes a run at RunStart time.
type RunInfo struct {
	// Name labels the run in exported traces. The round engines leave it
	// empty, analytic engines may name their segment ("recursion"), and
	// TraceSink prefixes it with its label ("E4 k=2").
	Name string
	// Nodes and Edges describe the graph under simulation.
	Nodes, Edges int
}

// RoundRecord is the aggregated view of one executed round, handed to
// Probe.RoundEnd. For the CONGEST engines Round is the network round
// number (1-based) and per-edge loads are 0 or 1 by the model's capacity;
// analytic engines that reuse the layer (randomwalk.Run) emit one record
// per walk step, where the edge load is the step's congestion — the
// quantity Lemma 2.5 bounds.
type RoundRecord struct {
	// Round is the round (or analytic step) just executed, 1-based.
	Round int
	// Delivered is the number of messages delivered this round.
	Delivered int
	// Active is the number of nodes that executed Step this round.
	Active int
	// Halted is the number of halted nodes after the round.
	Halted int
	// MaxInbox is the largest per-node inbox this round, and MaxInboxNode
	// the smallest node ID attaining it (-1 when no deliveries).
	MaxInbox     int
	MaxInboxNode int
	// MaxEdgeLoad is the largest per-directed-edge delivery count.
	MaxEdgeLoad int64
	// InboxSizes[v] is the number of messages delivered to node v.
	// Borrowed: valid only during the RoundEnd call.
	InboxSizes []int
	// EdgeLoad[2·e+dir] is the delivery count of edge e in direction dir
	// (dir 1 = toward the edge's V endpoint). int64: analytic engines and
	// duplication faults push per-slot counts past what int32 holds over
	// long traced runs. Borrowed: valid only during the RoundEnd call.
	EdgeLoad []int64
	// Dropped, Duplicated, Delayed count fault-injected message events this
	// round; Crashed is the number of nodes crashed during the round. All
	// zero unless a fault plan is attached (see Network.SetFaults).
	Dropped    int
	Duplicated int
	Delayed    int
	Crashed    int
}

// Probe observes a simulator run. All hooks run on the coordinating
// goroutine in a deterministic order (see the package comment above);
// implementations need no synchronization but must not mutate the network
// or retain borrowed slices. NopProbe provides no-op defaults to embed.
type Probe interface {
	// RunStart fires once per run, before Init.
	RunStart(info RunInfo)
	// PhaseMark fires for every Ctx.Mark a program emitted, after the
	// round's step barrier (round 0 = marks emitted during Init).
	PhaseMark(node, round int, name string)
	// NodeHalted fires once per node, after the step barrier of the round
	// in which the node called Halt (round 0 = halted during Init).
	NodeHalted(node, round int)
	// RoundEnd fires once per executed round with the aggregated record,
	// after that round's PhaseMark/NodeHalted events.
	RoundEnd(rec *RoundRecord)
	// RunEnd fires when the run returns (not on a program panic), with
	// the final round count and the run's error, if any.
	RunEnd(rounds int, err error)
}

// NopProbe implements Probe with no-ops; embed it to write probes that
// only care about a subset of the hooks.
type NopProbe struct{}

func (NopProbe) RunStart(RunInfo)           {}
func (NopProbe) PhaseMark(int, int, string) {}
func (NopProbe) NodeHalted(int, int)        {}
func (NopProbe) RoundEnd(*RoundRecord)      {}
func (NopProbe) RunEnd(int, error)          {}

// SetProbe attaches a probe to the network (nil detaches). It must be set
// before Run — attaching one later panics (see mustConfigure); the
// receiver returns itself so construction can chain.
func (n *Network) SetProbe(p Probe) *Network {
	n.mustConfigure("SetProbe")
	n.probe = p
	return n
}

// Mark emits a named phase marker attributed to this node and the current
// round. Markers are observability only: they reach the attached probe
// (in node-ID order after the round's step barrier) and never affect the
// execution. Without a probe the call is a no-op; guard any expensive
// name construction with Tracing.
func (c *Ctx) Mark(name string) {
	if c.net.probe == nil {
		return
	}
	c.marks = append(c.marks, phaseMark{round: c.net.rounds, name: name})
}

// Tracing reports whether a probe is attached, so programs can skip
// building mark names that would be dropped.
func (c *Ctx) Tracing() bool { return c.net.probe != nil }

// phaseMark is a queued Ctx.Mark, drained between barriers (DrainEvents).
type phaseMark struct {
	round int
	name  string
}

// RoundAggregator builds the RoundRecord of one round from its
// individual deliveries and hands it to Probe.RoundEnd. It is the one
// implementation of the record's aggregation rules (smallest node ID
// attaining the maximum inbox, directed-slot edge loads, borrowed
// slices reset between rounds), fed by the in-process engine from
// its inboxes and by the TCP transport coordinator from the shards'
// per-node inbox profiles — which is why both report byte-identical
// records. The record and its slices are scratch refilled in place, so
// a steady probed round allocates nothing.
type RoundAggregator struct {
	g          *graph.Graph
	inboxSizes []int
	edgeLoad   []int64
	touched    []int
	rec        RoundRecord
}

// NewRoundAggregator returns an aggregator for runs on g.
func NewRoundAggregator(g *graph.Graph) *RoundAggregator {
	return &RoundAggregator{
		g:          g,
		inboxSizes: make([]int, g.N()),
		edgeLoad:   make([]int64, 2*g.M()),
		rec:        RoundRecord{MaxInboxNode: -1},
	}
}

// Deliver notes one delivery arriving at node u over its port. Feed a
// round's deliveries grouped by receiver in ascending node order: ties
// for the maximum inbox then resolve to the smallest node ID.
func (a *RoundAggregator) Deliver(u, port int) {
	a.inboxSizes[u]++
	if a.inboxSizes[u] > a.rec.MaxInbox {
		a.rec.MaxInbox = a.inboxSizes[u]
		a.rec.MaxInboxNode = u
	}
	slot := int(a.g.Neighbors(u)[port].Arc ^ 1) // the arc the delivery crossed
	if a.edgeLoad[slot] == 0 {
		a.touched = append(a.touched, slot)
	}
	a.edgeLoad[slot]++
	if a.edgeLoad[slot] > a.rec.MaxEdgeLoad {
		a.rec.MaxEdgeLoad = a.edgeLoad[slot]
	}
}

// RoundEnd completes the record with the round's totals, fires
// p.RoundEnd, and resets the scratch for the next round.
func (a *RoundAggregator) RoundEnd(p Probe, round, delivered, active, halted int, fc faults.Counts) {
	rec := &a.rec
	rec.Round = round
	rec.Delivered = delivered
	rec.Active = active
	rec.Halted = halted
	rec.InboxSizes = a.inboxSizes
	rec.EdgeLoad = a.edgeLoad
	rec.Dropped = int(fc.Dropped)
	rec.Duplicated = int(fc.Duplicated)
	rec.Delayed = int(fc.Delayed)
	rec.Crashed = int(fc.Crashed)
	p.RoundEnd(rec)
	clear(a.inboxSizes)
	for _, slot := range a.touched {
		a.edgeLoad[slot] = 0
	}
	a.touched = a.touched[:0]
	*rec = RoundRecord{MaxInboxNode: -1}
}

// probeRunStart announces the run, allocates the round aggregator and
// binds the event hooks the drains call.
func (n *Network) probeRunStart() {
	if n.probe == nil {
		return
	}
	if n.agg == nil {
		n.agg = NewRoundAggregator(n.g)
	}
	n.onMark, n.onHalt = n.probe.PhaseMark, n.probe.NodeHalted
	n.probe.RunStart(RunInfo{Nodes: n.g.N(), Edges: n.g.M()})
}

// probeRoundFlush aggregates the round just executed and fires the
// per-round hooks. It reads the inboxes built by the deliver phase (which
// survive untouched through Step) rather than instrumenting the delivery
// hot path, so the engine carries no per-message probe cost.
func (n *Network) probeRoundFlush(delivered, active, halted int, fc faults.Counts) {
	for u, inbox := range n.inboxes {
		for _, in := range inbox {
			n.agg.Deliver(u, int(in.Port))
		}
	}
	n.all().DrainEvents(n.onMark, n.onHalt)
	n.agg.RoundEnd(n.probe, n.rounds, delivered, active, halted, fc)
}

// finish fires RunEnd, closes the metrics run, and returns the run
// result; every return path of the round loop goes through it.
func (n *Network) finish(err error) (int, error) {
	if n.probe != nil {
		n.probe.RunEnd(n.rounds, err)
	}
	if n.ms != nil {
		n.ms.runEnd(n.parts)
		n.ms = nil
	}
	return n.rounds, err
}

// begin enforces that a Network is single-use: rounds, message shards and
// program state all accumulate across rounds, so re-running Init over
// them would silently corrupt the results.
func (n *Network) begin() error {
	if n.started {
		return fmt.Errorf("congest: %w", ErrNetworkReused)
	}
	n.started = true
	return nil
}
