package randomwalk

// This file runs random-walk tokens as genuine CONGEST node programs on
// the simulator, complementing Run above (which executes the walk
// schedule directly and accounts rounds analytically). Every token hop is
// an actual message on an actual port, subject to the one-message-per-
// port-per-round capacity: tokens wanting the same port queue and drain
// one per round, which is exactly the congestion Lemma 2.5 schedules
// around. The workload is the simulator's natural stress test — per-node
// work every round, traffic on every edge — and is what the engine
// benchmark and the sequential-vs-parallel differential suite run.

import (
	"fmt"
	"math/bits"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// kindWalk is the one message kind of the walk programs (randomwalk's
// range of congest.Kind starts at 16).
const kindWalk congest.Kind = 16

// WalkLayouts is the walk programs' payload layout: a token's three words
// as uvarints (see walkToken.message).
var WalkLayouts = []congest.Layout{{Kind: kindWalk, Win: congest.FieldUint31, A: congest.FieldUint31, B: congest.FieldUint31}}

// walkToken is the message payload: the number of hops the token still
// has to make after the current delivery, plus the token's identity
// (origin node and per-origin sequence number). Identity is inert on
// fault-free runs; the retry driver (workloads.RunWalksFaults) uses it to
// recognize which tokens were absorbed and re-issue the lost ones.
type walkToken struct {
	Left   int32
	Origin int32
	Seq    int32
}

// message packs the token into a record: Left in Win, Origin and Seq in
// A and B.
func (tok walkToken) message() congest.Message {
	return congest.Message{Kind: kindWalk, Win: tok.Left, A: tok.Origin, B: tok.Seq}
}

// walkTokenOf unpacks a kindWalk record.
func walkTokenOf(m congest.Message) walkToken {
	return walkToken{Left: m.Win, Origin: m.A, Seq: m.B}
}

// WalkTokenID identifies one issued walk token across retry attempts:
// the origin node and a per-origin sequence number, unique across the
// whole faulty run (re-issues mint fresh numbers).
type WalkTokenID struct{ Origin, Seq int32 }

// NetworkWalkResult is the outcome of a node-program walk execution.
type NetworkWalkResult struct {
	// ArrivedAt[v] counts the tokens absorbed at node v after exhausting
	// their hops.
	ArrivedAt []int
	// Rounds is the simulator-measured makespan: walk steps plus all
	// queueing delay from port contention.
	Rounds int
	// Messages is the total hops delivered (= Σ tokens·steps when every
	// source has positive degree).
	Messages int
}

// FaultyWalkResult extends NetworkWalkResult with the retry accounting of
// a faulty run (workloads.RunWalksFaults). Rounds and Messages accumulate
// over all attempts.
type FaultyWalkResult struct {
	NetworkWalkResult
	// Attempts is the number of network runs executed (1 = first attempt
	// already delivered every token).
	Attempts int
	// Reissued counts tokens re-issued after being lost to faults.
	Reissued int
	// Lost counts tokens still unabsorbed when the attempt budget ran
	// out; 0 means every walk completed.
	Lost int
	// Faults aggregates the injected fault events over all attempts.
	Faults faults.Counts
}

// walkNode is the per-node program: it routes arriving tokens onward with
// a fresh uniform port choice per hop and drains one queued token per port
// per round.
//
// The per-port queues are intrusive FIFOs over one token pool per node.
// The first Degree slots of the pool are the ports' sentinels: port p's
// queue starts at pool[p].next and ends at tail[p], which is p itself when
// the queue is empty, so a push links behind the tail with no test for an
// empty queue. pool[i].next is the token behind pool[i], and free heads
// the list of vacated pool slots, linked through the same field; a token
// waits in one queue at a time, so one link per slot serves every port.
// busy holds one bit per port with a queued token, and flush visits the
// set bits only. The pool is sized at Init to the sentinels, the node's
// own tokens and one round of arrivals (one per port), which holds the
// peak backlog of most nodes of a run; it grows by append's doubling when
// a backlog outgrows it and is never shrunk, so once it has held a node's
// peak backlog, queueing and draining allocate nothing.
type walkNode struct {
	steps   int
	counts  []int
	arrived []int // shared, but each node writes only its own index

	pool []walkSlot
	tail []int32
	busy []uint64
	free int32

	// Identity-recording extras, nil on plain runs: seqBase[v] is the first
	// sequence number of node v's freshly issued tokens this attempt, and
	// absorbed[v] collects the identities of tokens absorbed at v (each
	// node appends only to its own slice, preserving the single-writer
	// sharding).
	seqBase  []int
	absorbed [][]WalkTokenID
}

// walkSlot is one pool entry: a queued token and the pool index of the
// token behind it (or of the next free slot, −1 at the end of that list).
// A sentinel's token is unused.
type walkSlot struct {
	tok  walkToken
	next int32
}

func (p *walkNode) Init(ctx *congest.Ctx) {
	deg, own := ctx.Degree(), p.counts[ctx.ID()]
	p.pool = make([]walkSlot, deg, deg+own+deg)
	p.tail = make([]int32, deg)
	for port := range p.tail {
		p.tail[port] = int32(port)
	}
	p.busy = make([]uint64, (deg+63)/64)
	p.free = -1
	base := 0
	if p.seqBase != nil {
		base = p.seqBase[ctx.ID()]
	}
	for i := 0; i < own; i++ {
		p.route(ctx, walkToken{
			Left:   int32(p.steps),
			Origin: int32(ctx.ID()),
			Seq:    int32(base + i),
		})
	}
	p.flush(ctx)
}

// route absorbs a token with no hops left, or queues it on a uniformly
// random port. Isolated nodes absorb immediately.
func (p *walkNode) route(ctx *congest.Ctx, tok walkToken) {
	if tok.Left == 0 || ctx.Degree() == 0 {
		p.arrived[ctx.ID()]++
		if p.absorbed != nil {
			p.absorbed[ctx.ID()] = append(p.absorbed[ctx.ID()], WalkTokenID{tok.Origin, tok.Seq})
		}
		return
	}
	port := ctx.Rand().IntN(ctx.Degree())
	tok.Left--
	slot := p.free
	if slot >= 0 {
		p.free = p.pool[slot].next
		p.pool[slot].tok = tok
	} else {
		slot = int32(len(p.pool))
		p.pool = append(p.pool, walkSlot{tok: tok})
	}
	p.pool[p.tail[port]].next = slot
	p.tail[port] = slot
	p.busy[port>>6] |= 1 << (port & 63)
}

// flush sends the head token of every busy port's queue and returns its
// pool slot to the free list; a queue it empties goes back to its sentinel
// and leaves the busy mask.
func (p *walkNode) flush(ctx *congest.Ctx) {
	for w, word := range p.busy {
		for rest := word; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			port := int32(w<<6 | bit)
			slot := p.pool[port].next
			ctx.Send(int(port), p.pool[slot].tok.message())
			p.pool[port].next = p.pool[slot].next
			p.pool[slot].next = p.free
			p.free = slot
			tail := p.tail[port]
			last := slot == tail
			if last {
				tail = port
			}
			p.tail[port] = tail
			word &^= uint64(b2u(last)) << bit
		}
		p.busy[w] = word
	}
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint {
	var u uint
	if b {
		u = 1
	}
	return u
}

func (p *walkNode) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	for _, in := range inbox {
		if in.Payload.Kind != kindWalk {
			congest.PanicUnknownKind("randomwalk", ctx, in)
		}
		p.route(ctx, walkTokenOf(in.Payload))
	}
	p.flush(ctx)
}

// WalkPrograms returns the per-node walk programs: counts[v] tokens start
// at node v, each making exactly steps uniform-random hops (no laziness).
// A non-nil seqBase selects identity-recording tokens for the retry
// driver: node v's tokens carry sequence numbers seqBase[v], seqBase[v]+1,
// … and every absorption appends the token's identity to absorbed[v]
// (nil otherwise). arrived[v] and absorbed[v] are single-writer per node
// and valid only on the process owning v. maxRounds is the RunUntilQuiet
// budget: every round at least one token hops while any remain in flight,
// so total hops bound the fault-free makespan; under plan (nil = none)
// delays and crash recoveries stretch it by their worst-case slack.
// Panics on mis-sized counts/seqBase or negative steps.
func WalkPrograms(g *graph.Graph, counts, seqBase []int, steps int, plan *faults.Plan) (programs []congest.Program, arrived []int, absorbed [][]WalkTokenID, maxRounds int) {
	if len(counts) != g.N() {
		panic(fmt.Sprintf("randomwalk: %d counts for %d nodes", len(counts), g.N()))
	}
	if seqBase != nil && len(seqBase) != g.N() {
		panic(fmt.Sprintf("randomwalk: %d sequence bases for %d nodes", len(seqBase), g.N()))
	}
	if steps < 0 {
		panic("randomwalk: negative step count")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	arrived = make([]int, g.N())
	if seqBase != nil {
		absorbed = make([][]WalkTokenID, g.N())
	}
	programs = make([]congest.Program, g.N())
	for v := range programs {
		programs[v] = &walkNode{steps: steps, counts: counts, arrived: arrived, seqBase: seqBase, absorbed: absorbed}
	}
	maxRounds = total*steps + 4
	if plan != nil {
		maxRounds += steps*plan.MaxDelay() + plan.RecoverySlack()
	}
	return programs, arrived, absorbed, maxRounds
}

// RunNetwork runs the WalkPrograms tokens as simulator messages until
// every token is absorbed. It is the one in-process entry point: opts
// selects the engine and attaches probe, metrics registry and fault plan
// (see congest.Options). The probe sees the genuine per-round trajectory
// (messages delivered, inbox sizes = queued tokens entering each node,
// per-edge deliveries), the measured counterpart of the analytic trace
// Config.Probe exposes on Run. Results are bit-identical across worker
// counts and reproducible given the seed source. Retrying tokens lost to
// a fault plan is workloads.RunWalksFaults' job, over any transport.
func RunNetwork(g *graph.Graph, counts []int, steps int, src *rngutil.Source, opts congest.Options) (*NetworkWalkResult, error) {
	programs, arrived, _, maxRounds := WalkPrograms(g, counts, nil, steps, opts.Faults)
	net := congest.NewNetwork(g, programs, src).Configure(opts)
	rounds, err := net.RunUntilQuiet(maxRounds)
	if err != nil {
		return nil, fmt.Errorf("randomwalk: network walk: %w", err)
	}
	return &NetworkWalkResult{ArrivedAt: arrived, Rounds: rounds, Messages: net.Messages()}, nil
}
