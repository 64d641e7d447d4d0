package congest

// The partitioned runtime's one primitive. Every executor of a Network —
// the engine's single inline part, its k worker parts, a Shard of the TCP
// backend — runs a part, and nothing else in the package loops over a node
// range: what happens to the nodes [lo, hi) in a round is written here,
// once, so there is one copy to prove identical across engines, workers,
// shards and backends.

import "almostmix/internal/faults"

// Split is the rule that cuts N nodes into K contiguous parts: part i owns
// [i·N/K, (i+1)·N/K). The engine's workers, the TCP coordinator and every
// shard process derive their ranges from it, so all of them agree on who
// owns a node without ever exchanging the layout.
type Split struct{ N, K int }

// Bounds returns part i's half-open node range.
func (s Split) Bounds(i int) (lo, hi int) { return i * s.N / s.K, (i + 1) * s.N / s.K }

// Owner returns the part that owns node v: the largest i with i·N/K ≤ v.
func (s Split) Owner(v int) int { return ((v+1)*s.K - 1) / s.N }

// part is a contiguous node range [lo, hi) of a Network plus the worker
// slot w whose padded counters its phases write. Within a phase a node is
// touched by exactly one part, and the one thing a part touches of other
// nodes — the outbox slots its receivers take, during deliver; each slot
// has a single receiver — is ordered against the owners' sends by the
// barrier between phases, which is the whole determinism argument,
// whatever runs the parts.
type part struct {
	net    *Network
	lo, hi int
	w      int
}

// all is the part that covers the whole network: the engine's only part
// when it runs inline, and its between-barriers bookkeeping view otherwise.
func (n *Network) all() part { return part{net: n, hi: n.g.N()} }

// Nodes returns the part's half-open node range.
func (p part) Nodes() (lo, hi int) { return p.lo, p.hi }

// Init runs Init for every node of the part (round 0). The marks and halts
// it emits are drained by the following DrainEvents call.
func (p part) Init() {
	for v := p.lo; v < p.hi; v++ {
		p.net.programs[v].Init(&p.net.ctxs[v])
	}
}

// deliver builds the inbox of every node of the part for the round about
// to execute, through the canonical delivery point, and returns the number
// of messages delivered to the part.
func (p part) deliver() (delivered int) {
	for u := p.lo; u < p.hi; u++ {
		delivered += p.net.deliverTo(u, p.w)
	}
	return delivered
}

// step runs Step on the part's nodes that are neither halted nor crashed
// in the round (already counted on net.rounds); their outboxes are empty,
// the deliver phase took every message. It returns how many nodes stepped
// and how many are halted afterwards — tallied here, where the flag is in
// hand, so no caller rescans the range.
func (p part) step() (active, halted int) {
	n := p.net
	for v := p.lo; v < p.hi; v++ {
		ctx := &n.ctxs[v]
		if !ctx.halted && !n.nodeCrashed(v) {
			active++
			n.programs[v].Step(ctx, n.inboxes[v])
		}
		if ctx.halted {
			halted++
		}
	}
	return active, halted
}

// DrainEvents forwards the queued phase marks and halt events of the
// part's nodes in node-ID order (a node's marks in emission order first,
// then its halt event) and clears them. Marks and halt flags are written
// only by whoever runs the node's Step; draining happens between barriers.
func (p part) DrainEvents(mark func(node, round int, name string), halted func(node, round int)) {
	for v := p.lo; v < p.hi; v++ {
		ctx := &p.net.ctxs[v]
		if len(ctx.marks) > 0 {
			for _, m := range ctx.marks {
				mark(v, m.round, m.name)
			}
			ctx.marks = ctx.marks[:0]
		}
		if ctx.justHalted {
			ctx.justHalted = false
			halted(v, ctx.haltRound)
		}
	}
}

// HaltedCount returns the number of the part's nodes that have halted.
func (p part) HaltedCount() (halted int) {
	for v := p.lo; v < p.hi; v++ {
		if p.net.ctxs[v].halted {
			halted++
		}
	}
	return halted
}

// Messages returns the messages sent so far by the part's nodes, summed
// from the per-node counters (Ctx.msgs, written only by the node's Step).
func (p part) Messages() (total int) {
	for v := p.lo; v < p.hi; v++ {
		total += p.net.ctxs[v].msgs
	}
	return total
}

// FaultCounts drains the fault events counted since the previous call (in
// practice: the round just stepped), adds the crash node-rounds of the
// part's own crashed nodes, folds the result into the plan's totals and
// returns it — so the counts of disjoint parts of a round sum to the
// round's counts, each event exactly once. Zero with no plan attached.
// Between barriers only: it empties every worker slot of the replica.
func (p part) FaultCounts() faults.Counts {
	fs := p.net.fs
	if fs == nil {
		return faults.Counts{}
	}
	var c faults.Counts
	for w := 0; w < len(fs.counts); w += faultCountStride {
		c.Add(fs.counts[w])
		fs.counts[w] = faults.Counts{}
	}
	c.Crashed = int64(fs.plan.CrashedCount(p.net.rounds, p.lo, p.hi))
	fs.plan.AddCounts(c)
	return c
}

// PendingDelayed returns the number of delayed messages still buffered for
// the part's receivers: a round with no deliveries is not quiet while one
// is in flight somewhere.
func (p part) PendingDelayed() (total int) {
	if p.net.fs == nil {
		return 0
	}
	for u := p.lo; u < p.hi; u++ {
		total += len(p.net.fs.pending[u])
	}
	return total
}
