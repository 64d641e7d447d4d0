// Package congest implements the standard CONGEST model of distributed
// computation as a discrete-time synchronous simulator.
//
// The network is an n-node graph; per synchronous round every node may
// send one O(log n)-bit message over each incident edge. Algorithms are
// written as node programs (the Program interface): per round each node
// reads the messages delivered on its ports and queues at most one
// outgoing message per port. The simulator enforces the per-edge capacity,
// counts rounds and messages, and detects termination.
//
// The simulator is the measurement instrument for all experiments: the
// paper's complexity claims are statements about the number of rounds this
// model needs, so round counts reported by Network.Run are the quantities
// compared against the theorems.
//
// Memory layout (DESIGN.md §3): the hot path is built for zero-alloc
// steady-state rounds at n ≥ 10^6. Adjacency, port and reverse-port
// tables are flat int32 CSR arrays (topology.go); node contexts are one
// flat []Ctx; outboxes, sent flags and inboxes are subslices of three
// arenas sized once at NewNetwork and recycled every round by slice
// reset. After the first few warmup rounds a steady round performs no
// heap allocation for any worker count (pinned by alloc_test.go).
package congest

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// Message is an opaque O(log n)-bit payload. Programs exchange small
// structs or scalars; the simulator counts one message per send.
type Message any

// Inbound is a message delivered to a node: the port it arrived on and the
// ID of the sending neighbor.
type Inbound struct {
	Port    int
	From    int
	Payload Message
}

// Ctx is the per-node view of the network handed to programs. It exposes
// exactly the knowledge the CONGEST model grants a node: its ID, its
// incident edges (ports) with the IDs of the neighbors across them, the
// total node count, and a private random stream.
//
// All mutable per-node state (outboxes, halt flags, message counts) lives
// here rather than on the Network, so that the engine can split the nodes
// into parts (see part.go) without any shared-counter data races: each Ctx
// is touched by exactly one part per phase, and network-wide totals are
// aggregated from the per-node shards. Contexts are stored as one flat
// []Ctx on the Network, and outbox/sent are subslices of arenas shared by
// all nodes, so building a million-node network costs a handful of
// allocations rather than O(n).
type Ctx struct {
	id     int
	net    *Network
	rng    *rand.Rand // created on first Rand() call; derivation is pure
	outbox []Message  // one slot per port; nil = no send this round
	sent   []bool
	halted bool
	msgs   int // messages sent by this node (sharded accounting)

	// Probe bookkeeping, populated only when a probe is attached. Like
	// msgs these are sharded: written by the owning worker, drained by
	// the coordinator between barriers.
	marks      []phaseMark
	justHalted bool
	haltRound  int
}

// ID returns the node's identifier.
func (c *Ctx) ID() int { return c.id }

// N returns the number of nodes in the network (globally known, as usual
// in CONGEST algorithms that assume knowledge of n).
func (c *Ctx) N() int { return c.net.topo.n }

// Degree returns the node's degree (number of ports).
func (c *Ctx) Degree() int { return len(c.outbox) }

// NeighborID returns the ID of the neighbor across the given port.
func (c *Ctx) NeighborID(port int) int {
	t := c.net.topo
	return int(t.to[t.start[c.id]+int32(port)])
}

// EdgeID returns the graph edge identifier behind the given port.
func (c *Ctx) EdgeID(port int) int {
	t := c.net.topo
	return int(t.edge[t.start[c.id]+int32(port)])
}

// EdgeWeight returns the weight of the edge behind the given port.
func (c *Ctx) EdgeWeight(port int) float64 {
	return c.net.g.Edge(c.EdgeID(port)).W
}

// PortTo returns the port leading to neighbor u, or -1 when no edge to u
// exists. O(log deg) by binary search on the CSR port table — programs
// that need to answer "which port reaches u?" should use this instead of
// scanning NeighborID over all ports.
func (c *Ctx) PortTo(u int) int { return c.net.topo.portOf(c.id, u) }

// Rand returns the node's private deterministic random stream. The
// stream is derived purely from (source seed, node ID) on first use, so
// lazily creating it here costs construction time only for nodes that
// actually draw randomness, without changing any drawn value.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = c.net.src.Stream("node", uint64(c.id))
	}
	return c.rng
}

// Round returns the current network round number (0 during Init). It
// reads the network's round counter directly, so it keeps advancing with
// the network even after this node halts — a halted node that is queried
// later (e.g. by post-run inspection) sees the true global round, not the
// round it halted in. Safe with any number of parts: the counter is
// written only between the round barriers.
func (c *Ctx) Round() int { return c.net.rounds }

// Send queues a message on the given port for delivery next round. At
// most one message may be sent per port per round; a second send on the
// same port panics, since it is a bug in the node program.
func (c *Ctx) Send(port int, payload Message) {
	if port < 0 || port >= len(c.outbox) {
		panic(fmt.Sprintf("congest: node %d sends on invalid port %d", c.id, port))
	}
	if c.sent[port] {
		panic(fmt.Sprintf("congest: node %d sends twice on port %d in one round", c.id, port))
	}
	c.sent[port] = true
	c.outbox[port] = payload
	c.msgs++
}

// Broadcast queues the same message on every port.
func (c *Ctx) Broadcast(payload Message) {
	for p := 0; p < len(c.outbox); p++ {
		c.Send(p, payload)
	}
}

// Halt marks the node as finished. A halted node's Step is no longer
// called; the network terminates when every node has halted. Delivery to
// halted nodes still occurs but the messages are dropped.
func (c *Ctx) Halt() {
	if c.halted {
		return
	}
	c.halted = true
	if c.net.probe != nil {
		c.justHalted = true
		c.haltRound = c.net.rounds
	}
}

// Program is a node algorithm. Init runs once before round 0; Step runs
// every round with the messages delivered in that round. The inbox slice
// handed to Step is an engine-owned buffer recycled every round: Step
// must not retain it (or any Inbound in it) past its own return.
type Program interface {
	Init(ctx *Ctx)
	Step(ctx *Ctx, inbox []Inbound)
}

// Network simulates a CONGEST execution of one Program replicated on all
// nodes of a graph.
type Network struct {
	g        *graph.Graph
	topo     *topology
	src      *rngutil.Source
	ctxs     []Ctx
	programs []Program
	// inboxes[v] is node v's delivery buffer, a subslice of one flat
	// arena sized to the directed-port count at NewNetwork. Engines
	// recycle it every round by slice reset; it only regrows when
	// duplication faults push a round's deliveries past a node's degree,
	// after which the grown buffer is retained and reused.
	inboxes [][]Inbound
	rounds  int
	// workers is the engine option consumed by Run and RunUntilQuiet: the
	// number of parts the round loop drives — 1 (the default) is the
	// sequential reference engine, the whole network inline on the calling
	// goroutine; SetWorkers resolves <=0 to one per available CPU.
	workers int
	// started enforces that a Network is single-use (see begin).
	started bool
	// probe, when non-nil, observes the run (see probe.go); agg is the
	// lazily allocated aggregator that builds its per-round records, and
	// onMark/onHalt are its event hooks, bound once at run start (a method
	// value bound at every round's drain would allocate).
	probe  Probe
	agg    *RoundAggregator
	onMark func(node, round int, name string)
	onHalt func(node, round int)
	// reg, when non-nil, receives host-side metrics (see metrics.go); ms
	// is the per-run state the engine consults through one nil check.
	reg *metrics.Registry
	ms  *metricsState
	// faultPlan, when non-nil, injects deterministic faults at the
	// canonical delivery point (see faultnet.go); fs is its per-run
	// state, nil on the fault-free fast path.
	faultPlan *faults.Plan
	fs        *faultState
}

// NewNetwork builds a network over g where node v runs programs[v].
// Programs may share state only through messages; the simulator never
// copies payloads, so programs must not mutate received payloads.
func NewNetwork(g *graph.Graph, programs []Program, src *rngutil.Source) *Network {
	if len(programs) != g.N() {
		panic(fmt.Sprintf("congest: %d programs for %d nodes", len(programs), g.N()))
	}
	n := g.N()
	topo := newTopology(g)
	net := &Network{
		g:        g,
		topo:     topo,
		src:      src,
		ctxs:     make([]Ctx, n),
		programs: programs,
		inboxes:  make([][]Inbound, n),
		workers:  1,
	}
	// All per-port state lives in three arenas subsliced per node; the
	// full-slice expressions pin each node's capacity to its degree so a
	// neighbor's append can never bleed into the next node's range.
	ports := int(topo.start[n])
	outArena := make([]Message, ports)
	sentArena := make([]bool, ports)
	inArena := make([]Inbound, ports)
	for v := 0; v < n; v++ {
		lo, hi := topo.start[v], topo.start[v+1]
		ctx := &net.ctxs[v]
		ctx.id = v
		ctx.net = net
		ctx.outbox = outArena[lo:hi:hi]
		ctx.sent = sentArena[lo:hi:hi]
		net.inboxes[v] = inArena[lo:lo:hi]
	}
	return net
}

// NewUniformNetwork builds a network where every node runs a fresh program
// produced by factory.
func NewUniformNetwork(g *graph.Graph, factory func(v int) Program, src *rngutil.Source) *Network {
	programs := make([]Program, g.N())
	for v := range programs {
		programs[v] = factory(v)
	}
	return NewNetwork(g, programs, src)
}

// Rounds returns the number of rounds executed so far.
func (n *Network) Rounds() int { return n.rounds }

// Messages returns the total number of messages sent so far, aggregated
// from the per-node shards. It must not be called while a run is in
// flight (no caller does: runs are synchronous).
func (n *Network) Messages() int { return n.all().Messages() }

// SetWorkers configures the engine behind Run and RunUntilQuiet: 1 (the
// default) is the sequential reference engine, w > 1 splits the nodes into
// w parts run by w workers, and w <= 0 selects one worker per available
// CPU. Results are bit-identical across all settings; only wall-clock time
// changes. The receiver returns itself so construction can chain.
func (n *Network) SetWorkers(w int) *Network {
	n.mustConfigure("SetWorkers")
	n.workers = normalizeWorkers(w)
	return n
}

// Options is the one set of run options every node-program entry point
// takes (randomwalk.RunNetwork, mstbase.GHSNetwork, transport.Proc): each
// field means exactly what its Set* method documents, nil = off. Note the
// zero Workers is SetWorkers(0), one worker per CPU — callers that want
// the sequential reference engine say Workers: 1.
type Options struct {
	Workers int
	Probe   Probe
	Metrics *metrics.Registry
	Faults  *faults.Plan
}

// Configure applies o through the Set* methods; like them it must precede
// Run and returns the receiver.
func (n *Network) Configure(o Options) *Network {
	return n.SetWorkers(o.Workers).SetProbe(o.Probe).SetMetrics(o.Metrics).SetFaults(o.Faults)
}

// mustConfigure panics when a Set* option is applied after the network has
// started. A Network is single-use (see ErrNetworkReused): once Run (or a
// Shard) has consumed it, reconfiguring it cannot take effect and would
// silently mutate a spent network — worse, a probe or fault plan attached
// between two Run calls would make the ErrNetworkReused failure look like
// a partially-configured run. Configuration after start is therefore a
// caller bug and fails loudly, like Send on an invalid port.
func (n *Network) mustConfigure(option string) {
	if n.started {
		panic(fmt.Sprintf("congest: %s after Run on a single-use network (configure before the first Run)", option))
	}
}

// Graph returns the underlying graph.
func (n *Network) Graph() *graph.Graph { return n.g }

// ErrRoundLimit is returned by Run when maxRounds elapse before all nodes
// halt.
var ErrRoundLimit = errors.New("congest: round limit reached before all nodes halted")

// ErrNetworkReused is returned when Run (or RunUntilQuiet) is called a
// second time on the same Network. A Network is single-use:
// rounds, per-node message shards and program state accumulate across
// rounds, so re-running Init over them would silently corrupt both the
// accounting and the algorithm state. Build a fresh Network (the graph
// and source can be reused) for another run; Rounds and Messages remain
// readable after the first run completes.
var ErrNetworkReused = errors.New("network is single-use: Run already called; build a new Network")

// Run initializes all programs and executes rounds until every node halts
// or maxRounds elapse. It returns the number of rounds executed. SetWorkers
// sets how many parts of the network run concurrently (one, inline, by
// default); results are identical for every setting. A Network is
// single-use: a second Run (or RunUntilQuiet) call returns ErrNetworkReused.
func (n *Network) Run(maxRounds int) (int, error) { return n.run(maxRounds, false) }

// RunUntilQuiet runs like Run but also terminates (successfully) after a
// round in which no node sent any message, which is the natural stopping
// condition for flooding-style algorithms whose nodes cannot detect global
// termination locally. Like Run it consumes the SetWorkers engine option.
func (n *Network) RunUntilQuiet(maxRounds int) (int, error) { return n.run(maxRounds, true) }

// deliverTo rebuilds node u's inbox for the round about to execute
// (n.rounds+1, 1-based) and returns the number of messages delivered to
// it. It is THE canonical receiver-driven delivery point: part.deliver
// calls it once per receiver per round, each receiver scanning its own
// CSR port range in order and reading the matching outbox slot of the
// sender across each port (one rev-table read), so delivery order is
// fixed regardless of how the network is partitioned. Messages to halted nodes
// are dropped. The inbox is the node's recycled arena subslice, reset to
// length zero here — steady-state rounds never allocate. When a fault
// plan is attached this is also the single injection point (see
// faultnet.go); w is the calling part's worker slot for the fault layer's
// padded counts.
func (n *Network) deliverTo(u, w int) int {
	inbox := n.inboxes[u][:0]
	if n.fs != nil {
		inbox = n.fs.deliverFaulty(n, u, inbox, w)
		n.inboxes[u] = inbox
		return len(inbox)
	}
	if n.ctxs[u].halted {
		n.inboxes[u] = inbox
		return 0
	}
	t := n.topo
	lo, hi := t.start[u], t.start[u+1]
	for i := lo; i < hi; i++ {
		sender := &n.ctxs[t.to[i]]
		sp := t.rev[i]
		if sender.sent[sp] {
			inbox = append(inbox, Inbound{
				Port:    int(i - lo),
				From:    int(t.to[i]),
				Payload: sender.outbox[sp],
			})
		}
	}
	n.inboxes[u] = inbox
	return len(inbox)
}

// clearOutbox resets the node's sent flags and outbox slots after a
// delivery pass.
func (c *Ctx) clearOutbox() {
	for p, s := range c.sent {
		if s {
			c.sent[p] = false
			c.outbox[p] = nil
		}
	}
}
