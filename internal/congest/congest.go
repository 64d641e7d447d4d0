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
// steady-state rounds at n ≥ 10^6. Ports are the graph's own CSR
// (graph.Graph.CSR) and the one table the engine adds is peer, its
// delivery index, flat int32 like it; node contexts are one
// flat []Ctx; outboxes and inboxes are subslices of two value arenas
// sized once at NewNetwork and recycled every round by slice reset. A
// Message is a fixed-width record without pointers, so both arenas are
// memory the garbage collector never scans and a send copies words —
// no program's payload is boxed. After the first few warmup rounds a
// steady round performs no heap allocation for any worker count (pinned
// by alloc_test.go).
package congest

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"unsafe"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// Kind tags a Message with what its words mean. Zero is reserved: it is
// the empty outbox slot, never a payload (Send and Shard.Inject refuse
// it). Every program family owns a range and numbers its kinds inside it,
// so a record that strays into another family's network is recognized
// where it arrives: 1–15 this package's built-in programs (kindLeader and
// kindSum belong to the programs of primitives_test.go), 16–31 randomwalk,
// 32–47 mstbase; test programs take KindTest and up.
type Kind uint32

const (
	kindTick Kind = 1 + iota
	kindBFS
	kindLeader
	kindFlood
	kindSum

	// KindTest is the first kind no program family of the repo owns: test
	// programs number theirs from here.
	KindTest Kind = 1 << 16
)

// Message is the CONGEST bandwidth as a type: one fixed-width record — a
// Kind and a compile-time-constant handful of integer words, O(log n)
// bits — carries every message of every program. It holds no pointer,
// interface, string or slice (message_test.go walks the fields), so a
// payload wider than the record cannot be written, a send copies
// MessageBytes bytes, and the arenas of records are no-scan memory. What
// Win, A, B and W mean belongs to the Kind's family; the widest tenant is
// GHS's window-stamped candidate (window, two endpoints, float64 bits),
// which fills the record exactly. Records are values: they compare with
// ==, and the zero record is the empty slot.
type Message struct {
	Kind Kind
	Win  int32
	A, B int32
	W    uint64
}

// MessageBytes is the width of a Message, the simulator's bound on what
// one send may carry.
const MessageBytes = 24

// PortArenaBytes is what NewNetwork's two arenas cost per directed port:
// one outbox record and one inbox slot.
const PortArenaBytes = int(unsafe.Sizeof(Message{}) + unsafe.Sizeof(Inbound{}))

// Inbound is a message delivered to a node: the port it arrived on and the
// ID of the sending neighbor.
type Inbound struct {
	Port    int32
	From    int32
	Payload Message
}

// PanicUnknownKind panics for a program of the named family that was
// delivered a record whose kind it does not know — a bug in the program,
// or a network assembled from two families.
func PanicUnknownKind(family string, ctx *Ctx, in Inbound) {
	panic(fmt.Sprintf("%s: node %d got unknown message kind %d on port %d", family, ctx.ID(), in.Payload.Kind, in.Port))
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
// []Ctx on the Network, and outbox is a subslice of an arena shared by all
// nodes, so building a million-node network costs a handful of
// allocations rather than O(n).
type Ctx struct {
	id     int
	net    *Network
	rng    *rand.Rand // created on first Rand() call; derivation is pure
	outbox []Message  // one slot per port; Kind 0 = no send this round
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
func (c *Ctx) N() int { return c.net.g.N() }

// Degree returns the node's degree (number of ports).
func (c *Ctx) Degree() int { return len(c.outbox) }

// NeighborID returns the ID of the neighbor across the given port.
func (c *Ctx) NeighborID(port int) int { return int(c.net.g.Neighbors(c.id)[port].To) }

// EdgeID returns the graph edge identifier behind the given port.
func (c *Ctx) EdgeID(port int) int { return c.net.g.Neighbors(c.id)[port].EdgeID() }

// EdgeWeight returns the weight of the edge behind the given port.
func (c *Ctx) EdgeWeight(port int) float64 {
	return c.net.g.Edge(c.EdgeID(port)).W
}

// PortTo returns the port leading to neighbor u, or -1 when no edge to u
// exists: graph.Graph.Port, O(deg).
func (c *Ctx) PortTo(u int) int { return c.net.g.Port(c.id, u) }

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
// same port panics, and so does sending the empty record (Kind 0 is the
// empty slot: the message would vanish) — both are bugs in the node
// program.
func (c *Ctx) Send(port int, payload Message) {
	if port < 0 || port >= len(c.outbox) {
		panic(fmt.Sprintf("congest: node %d sends on invalid port %d", c.id, port))
	}
	if payload.Kind == 0 {
		panic(fmt.Sprintf("congest: node %d sends the empty record (kind 0) on port %d", c.id, port))
	}
	slot := &c.outbox[port]
	if slot.Kind != 0 {
		panic(fmt.Sprintf("congest: node %d sends twice on port %d in one round", c.id, port))
	}
	// Field by field, not `*slot = payload`: the record arrives in five
	// registers and is spilled as five narrow stores, and a wide copy out
	// of that spill reloads across them — a store-forwarding stall on
	// every send (the ticker rungs ran 1.4× slower).
	slot.Kind, slot.Win, slot.A, slot.B, slot.W = payload.Kind, payload.Win, payload.A, payload.B, payload.W
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
	g *graph.Graph
	// peer[i] is the absolute CSR index of the half-edge reversing
	// half-edge i (graph.Graph.Reverses): the sender's port leading to
	// the receiver, so the receiver-driven delivery scan finds the
	// sender's outbox slot with one int32 load and reads it with one
	// arena load.
	peer     []int32
	src      *rngutil.Source
	ctxs     []Ctx
	programs []Program
	// out is the outbox arena, one record per directed port in CSR order:
	// ctxs[v].outbox is its subslice [start[v], start[v+1]), and delivery
	// reads a sender's slot by absolute index (peer).
	out []Message
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
// Programs may share state only through messages, and a message is a
// value: what a receiver reads is its own copy of the record.
func NewNetwork(g *graph.Graph, programs []Program, src *rngutil.Source) *Network {
	if len(programs) != g.N() {
		panic(fmt.Sprintf("congest: %d programs for %d nodes", len(programs), g.N()))
	}
	n := g.N()
	start, _ := g.CSR()
	net := &Network{
		g:        g,
		peer:     g.Reverses(),
		src:      src,
		ctxs:     make([]Ctx, n),
		programs: programs,
		inboxes:  make([][]Inbound, n),
		workers:  1,
	}
	// All per-port state lives in two pointer-free arenas subsliced per
	// node (PortArenaBytes per directed port); the full-slice expressions
	// pin each node's capacity to its degree so a neighbor's append can
	// never bleed into the next node's range.
	ports := int(start[n])
	net.out = make([]Message, ports)
	inArena := make([]Inbound, ports)
	// Fault the arenas in here. Pointer-free memory fresh from the OS is
	// handed out untouched (the runtime zeroes only recycled spans), and
	// first touch would then land inside round one's sends and deliveries
	// — 25 000 page faults and a quarter of the run at n = 10⁶, charged to
	// the round loop instead of to construction, where the runtime's
	// zeroing of the old pointer-carrying arenas used to pay it.
	clear(net.out)
	clear(inArena)
	for v := 0; v < n; v++ {
		lo, hi := start[v], start[v+1]
		ctx := &net.ctxs[v]
		ctx.id = v
		ctx.net = net
		ctx.outbox = net.out[lo:hi:hi]
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
// sender across each port (one peer-table load, one arena load), so
// delivery order is fixed regardless of how the network is partitioned.
//
// The receiver also empties every slot it reads — a slot has exactly one
// reader, the node across its port, so taking the message is what recycles
// the outbox: by the time the step phase runs, every slot of the network
// is empty again and no pass over the arena is spent clearing it. A
// halted receiver takes and drops: its neighbors' sends must not sit in
// their slots as double sends next round.
//
// The inbox is the node's recycled arena subslice, reset to length zero
// here — steady-state rounds never allocate. When a fault plan is
// attached this is also the single injection point (see faultnet.go); w
// is the calling part's worker slot for the fault layer's padded counts.
func (n *Network) deliverTo(u, w int) int {
	inbox := n.inboxes[u][:0]
	if n.fs != nil {
		inbox = n.fs.deliverFaulty(n, u, inbox, w)
		n.inboxes[u] = inbox
		return len(inbox)
	}
	start, half := n.g.CSR()
	lo, hi := start[u], start[u+1]
	peer, ports, out := n.peer[lo:hi], half[lo:hi], n.out
	if n.ctxs[u].halted {
		for _, slot := range peer {
			out[slot].empty()
		}
		n.inboxes[u] = inbox
		return 0
	}
	for p, slot := range peer {
		if m := &out[slot]; m.Kind != 0 {
			// Filled in place: a composite literal is assembled on the
			// stack from narrow stores and copied out with wide loads
			// that cannot be forwarded from them (see Send).
			inbox = append(inbox, Inbound{})
			in := &inbox[len(inbox)-1]
			in.Port, in.From, in.Payload = int32(p), ports[p].To, *m
			m.Kind = 0
		}
	}
	n.inboxes[u] = inbox
	return len(inbox)
}

// empty drops whatever an outbox slot holds. Only the kind is reset — an
// empty slot's other words are never read, and the next Send overwrites
// them all — and only when set, so scanning empty slots dirties nothing.
func (m *Message) empty() {
	if m.Kind != 0 {
		m.Kind = 0
	}
}
