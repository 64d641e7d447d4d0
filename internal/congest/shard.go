package congest

// Shard execution: the congest-side half of the TCP transport backend
// (internal/transport). A Shard is one part (see part.go) of a Network
// replica driven from outside the package: the same Init, deliver, step
// and drains the in-process round loop runs, exposed as explicit calls so
// a shard process can run the round barriers over the wire with its peers.
// What a Shard adds is the only thing that is genuinely its own — the
// crossing lists.
//
// Every participating process builds the SAME full Network from the
// replayable workload spec — topology, arenas and per-node RNG streams
// are identical everywhere — but each process only ever runs the
// programs of its own range. Cross-shard traffic needs no delivery code
// of its own: an inbound remote message is staged by setting the slot
// the remote sender's Send would have filled in the local replica — the
// owned receiver's slot of the edge (Crossing.Stage) — after which the
// unmodified deliverTo — THE canonical delivery point —
// assembles the receiver's inbox in port order exactly as it does for a
// neighbor in the same part. That is what makes TCP-backed traces
// byte-identical to the sequential engine: there is only one delivery
// order in the codebase, and the wire backend reuses it.
//
// Each ordered pair of shards (A → B) has one crossing list: the directed
// edges from A's nodes to B's, in A's CSR order (node ascending, port
// ascending), each named by the slot its sends fill — the receiver's
// half-edge, peer[h] of the sender's half-edge h. Both ends derive it from
// the replica graph and the Split, so a send crosses the wire as its index
// in that list and its payload, and the index names the same slot on both
// ends: on A the slot its sender's Send filled, on B the slot its
// receiver's deliverTo reads.
//
// The calls a shard runtime makes, in the order of a round:
//
//	Init()                       — run Init for owned nodes (round 0)
//	Inbound(j).Stage(k, m)       — stage shard j's sends; then Deliver()
//	Deliver()                    — build inboxes from every staged slot
//	Step()                       — advance the round, run owned programs
//	SkipTo(round)                — count idle rounds the skip rule covers
//	Outbound(j).Take(k)          — read and empty the sends bound for shard j
//	DrainEvents(...)             — marks/halts of owned nodes, ID order
//
// Every send an owned node makes toward another shard must be taken
// before the next Step: no local delivery empties those slots.
//
// Fault plans ride the same canonical path: attach the plan with
// SetFaults BEFORE NewShard (the single-use contract makes SetFaults
// panic afterwards) and deliverFaulty runs unchanged at deliverTo on
// every replica. Nothing about the plan crosses the wire: each replica
// builds the identical plan from the run's spec, and a message's fate is
// rolled — the pure (seed, round, slot) hash — by the shard that owns its
// receiver, which holds the message because Stage put it in the
// receiver's slot before deliverTo scans it. Per-round fault counts are drained by
// the shard runtime through FaultCounts — the Shard's part counts its own
// deliveries, and Crashed is restricted to the owned range, so shard
// counts sum to the global totals — and crashed owned nodes skip Step
// like any other part's.

import "fmt"

// Shard drives part i of a Split of a single-use Network for a round loop
// run outside the package. Obtain one with NewShard; the Network must not
// be run or reconfigured afterwards (NewShard consumes its single use).
// Init, DrainEvents, HaltedCount, Messages, FaultCounts, PendingDelayed and
// Nodes are the part's own methods over the owned range.
type Shard struct {
	part
	// out[j] and in[j] are the crossing lists toward and from shard j:
	// absolute outbox-arena indices (receivers' half-edges) in the
	// senders' CSR order, nil at this shard's own index.
	out, in [][]int32
}

// NewShard consumes net and returns the shard harness for part i of
// split, which must cut net's nodes. The network must be freshly built:
// NewShard claims its single use (a second NewShard or Run returns
// ErrNetworkReused), so every Set* option — including SetFaults — must be
// applied before it and panics afterwards. Probes attached to the replica
// are ignored — observability is drained through DrainEvents instead and
// shipped to the coordinator, so event collection is always on.
func NewShard(net *Network, split Split, i int) (*Shard, error) {
	n := net.g.N()
	if split.N != n || split.K < 1 || i < 0 || i >= split.K {
		return nil, fmt.Errorf("congest: shard %d of a split of %d nodes into %d, over a network of %d nodes", i, split.N, split.K, n)
	}
	// Event collection (marks, halt rounds) is gated on an attached
	// probe; the shard always collects so the coordinator can rebuild
	// the canonical event stream. The probe itself never fires here.
	net.probe = NopProbe{}
	if err := net.begin(); err != nil {
		return nil, err
	}
	net.faultsRunStart()
	lo, hi := split.Bounds(i)
	s := &Shard{part: part{net: net, lo: lo, hi: hi}, out: make([][]int32, split.K), in: make([][]int32, split.K)}
	// A crossing edge has one direction out of the shard and one in, so
	// both lists of a pair are as long as the count of owned half-edges
	// into the other part: one counting pass sizes one backing array.
	start, half := net.g.CSR()
	peer := net.peer
	count := make([]int, split.K)
	total := 0
	for h := start[lo]; h < start[hi]; h++ {
		if j := split.Owner(int(half[h].To)); j != i {
			count[j]++
			total++
		}
	}
	slots := make([]int32, 2*total)
	for j, c := range count {
		if j != i {
			s.out[j], s.in[j], slots = slots[:0:c], slots[c:c:2*c], slots[2*c:]
		}
	}
	for h := start[lo]; h < start[hi]; h++ {
		if j := split.Owner(int(half[h].To)); j != i {
			s.out[j] = append(s.out[j], peer[h])
		}
	}
	for j := range s.in {
		if j == i || count[j] == 0 {
			continue
		}
		jlo, jhi := split.Bounds(j)
		for h := start[jlo]; h < start[jhi]; h++ {
			if to := int(half[h].To); to >= lo && to < hi {
				s.in[j] = append(s.in[j], peer[h])
			}
		}
	}
	return s, nil
}

// Crossing is one crossing list of a Shard's replica: a run of outbox
// slots (the receivers' half-edges), each named by its index in the list.
type Crossing struct {
	arena []Message
	slots []int32
}

// Outbound returns the crossing list toward shard j: the slots the owned
// nodes' sends to j's nodes fill, in the owned nodes' CSR order.
func (s *Shard) Outbound(j int) Crossing { return Crossing{s.net.out, s.out[j]} }

// Inbound returns the crossing list from shard j: the owned nodes' slots
// that j's nodes' sends fill, in j's CSR order — the list j's Outbound(i)
// is on j's replica.
func (s *Shard) Inbound(j int) Crossing { return Crossing{s.net.out, s.in[j]} }

// Len returns the number of slots in the list.
func (c Crossing) Len() int { return len(c.slots) }

// Take returns the record in slot k and empties the slot: the empty
// record (kind 0) when the slot holds no send.
func (c Crossing) Take(k int) (m Message) {
	if p := &c.arena[c.slots[k]]; p.Kind != 0 {
		m, p.Kind = *p, 0
	}
	return m
}

// Stage puts remote message m in slot k, an index of the list, for the
// next Deliver to take through the canonical port-ordered scan. It is a
// protocol error — not a silent drop — to stage the empty record (which
// deliverTo would read as no message) or onto a slot that already holds
// one.
func (c Crossing) Stage(k int, m Message) error {
	if m.Kind == 0 {
		return fmt.Errorf("congest: staging the empty record (kind 0) at crossing %d", k)
	}
	p := &c.arena[c.slots[k]]
	if p.Kind != 0 {
		return fmt.Errorf("congest: duplicate stage at crossing %d", k)
	}
	*p = m
	return nil
}

// Deliver builds the inbox of every owned node for the round about to
// execute and returns the number of messages delivered to this shard.
// The owned receivers take the staged remote slots like any other, which
// restores the replica's non-owned state to empty for the next round.
// Message counting is unaffected: sends are counted at the sending shard
// only.
func (s *Shard) Deliver() int { return s.deliver() }

// Inbox returns the inbox built by the last Deliver for owned node u.
// Borrowed: valid until the next Deliver, for the probe's per-node stats.
func (s *Shard) Inbox(u int) []Inbound { return s.net.inboxes[u] }

// Step advances the replica's round counter and runs the step phase over
// the owned range. It returns the number of nodes that executed Step and
// the earliest round an owned live node promised to sleep until
// (Ctx.SleepUntil, as part.step tallies it). The last round's sends
// toward other shards must have been taken (Outbound).
func (s *Shard) Step() (active, wake int) {
	s.net.rounds++
	active, _, wake = s.step()
	return active, wake
}

// SkipTo advances the replica's round counter to round without stepping
// anyone, for rounds the skip rule covers (SkipTarget): each
// skipped round's fault counts — the owned nodes' crash node-rounds — are
// drained as FaultCounts drains an executed round's and folded into the
// plan totals.
func (s *Shard) SkipTo(round int) {
	for s.net.rounds < round {
		s.net.rounds++
		s.FaultCounts()
	}
}

// Rounds returns the replica's round counter.
func (s *Shard) Rounds() int { return s.net.rounds }
