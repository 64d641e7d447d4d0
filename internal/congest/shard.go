package congest

// Shard execution: the congest-side half of the TCP transport backend
// (internal/transport). A Shard is one part (see part.go) of a Network
// replica driven by an external coordinator: the same Init, deliver, step
// and drains the in-process round loop runs, exposed as explicit calls so
// the coordinator can run the round barriers over the wire. What a Shard
// adds is the only thing that is genuinely its own — boundary staging.
//
// Every participating process builds the SAME full Network from the
// replayable workload spec — topology, arenas and per-node RNG streams
// are identical everywhere — but each process only ever runs the
// programs of its own range. Cross-shard traffic needs no delivery code
// of its own: an inbound remote message is staged by setting the
// remote sender's outbox slot in the local replica (Inject), after
// which the unmodified deliverTo — THE canonical delivery point —
// assembles the receiver's inbox in port order exactly as it does for a
// neighbor in the same part. That is what makes TCP-backed traces
// byte-identical to the sequential engine: there is only one delivery
// order in the codebase, and the wire backend reuses it.
//
// The coordinator-facing calls, in the order of a round:
//
//	Init()                       — run Init for owned nodes (round 0)
//	Inject(...); Deliver()       — stage remote sends, build inboxes
//	Step()                       — advance the round, run owned programs
//	ExternalSends(...)           — enumerate owned sends that leave the shard
//	DrainEvents(...)             — marks/halts of owned nodes, ID order
//
// Fault plans ride the same canonical path: attach the plan with
// SetFaults BEFORE NewShard (the single-use contract makes SetFaults
// panic afterwards) and deliverFaulty runs unchanged at deliverTo on
// every replica. Nothing about the plan crosses the wire: each replica
// builds the identical plan from the run's spec, and a message's fate is
// rolled — the pure (seed, round, slot) hash — by the shard that owns its
// receiver, which holds the message because Inject staged it before
// deliverTo scans it. Per-round fault counts are drained by the
// coordinator through FaultCounts — Crashed restricted to the owned
// range so shard counts sum to the global totals — and crashed owned
// nodes skip Step like any other part's.

import "fmt"

// shardBoundary is one directed cross-shard port pair: an owned node's
// port facing a remote neighbor. The remote side's (node, port) is both
// the destination of outbound traffic over this edge and the staging
// slot Inject writes for inbound traffic over the reverse edge.
type shardBoundary struct {
	ownerSlot  int32 // owned node's port facing the remote neighbor: absolute outbox-arena index
	remote     int32 // the remote neighbor
	remotePort int32 // the remote neighbor's port facing the owned node
}

// Shard drives nodes [lo, hi) of a single-use Network under an external
// coordinator. Obtain one with NewShard; the Network must not be run or
// reconfigured afterwards (NewShard consumes its single use). Init,
// DrainEvents, HaltedCount, Messages, FaultCounts, PendingDelayed and Nodes
// are the part's own methods over the owned range.
type Shard struct {
	part
	boundary []shardBoundary
}

// NewShard consumes net and returns the shard harness for nodes
// [lo, hi). The network must be freshly built: NewShard claims its
// single use (a second NewShard or Run returns ErrNetworkReused), so
// every Set* option — including SetFaults — must be applied before it
// and panics afterwards. Probes attached to the replica are ignored —
// observability is drained by the coordinator through DrainEvents
// instead, so event collection is always on.
func NewShard(net *Network, lo, hi int) (*Shard, error) {
	if lo < 0 || hi > net.g.N() || lo > hi {
		return nil, fmt.Errorf("congest: shard range [%d, %d) outside nodes [0, %d)", lo, hi, net.g.N())
	}
	// Event collection (marks, halt rounds) is gated on an attached
	// probe; the shard always collects so the coordinator can rebuild
	// the canonical event stream. The probe itself never fires here.
	net.probe = NopProbe{}
	if err := net.begin(); err != nil {
		return nil, err
	}
	// The deliver/step phases run on the coordinator's single driving
	// goroutine, so the fault scratch needs one count slot.
	net.faultsRunStart(1)
	s := &Shard{part: part{net: net, lo: lo, hi: hi}}
	start, half := net.g.CSR()
	for i := start[lo]; i < start[hi]; i++ {
		nbr := half[i].To
		if int(nbr) >= lo && int(nbr) < hi {
			continue
		}
		s.boundary = append(s.boundary, shardBoundary{
			ownerSlot:  i,
			remote:     nbr,
			remotePort: net.peer[i] - start[nbr],
		})
	}
	return s, nil
}

// Inject stages one remote message for delivery to owned node dst on
// the given port, by setting the sending neighbor's outbox slot in the
// local replica. The next Deliver picks it up through the canonical
// port-ordered scan. It is a protocol error — not a silent drop — to
// inject onto an intra-shard port, twice onto the same port in one
// round, or the empty record (which deliverTo would read as no message).
func (s *Shard) Inject(dst, port int, payload Message) error {
	if dst < s.lo || dst >= s.hi {
		return fmt.Errorf("congest: inject to node %d outside shard [%d, %d)", dst, s.lo, s.hi)
	}
	g := s.net.g
	if port < 0 || port >= g.Degree(dst) {
		return fmt.Errorf("congest: inject to node %d on invalid port %d", dst, port)
	}
	start, half := g.CSR()
	i := start[dst] + int32(port)
	from := int(half[i].To)
	if from >= s.lo && from < s.hi {
		return fmt.Errorf("congest: inject to node %d port %d crosses no shard boundary (sender %d is owned)", dst, port, from)
	}
	if payload.Kind == 0 {
		return fmt.Errorf("congest: inject of the empty record (kind 0) to node %d port %d", dst, port)
	}
	slot := &s.net.out[s.net.peer[i]]
	if slot.Kind != 0 {
		return fmt.Errorf("congest: duplicate inject to node %d port %d", dst, port)
	}
	*slot = payload
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
// Borrowed: valid until the next Deliver, for coordinator-side stats.
func (s *Shard) Inbox(u int) []Inbound { return s.net.inboxes[u] }

// Step advances the replica's round counter and runs the step phase over
// the owned range. It returns the number of nodes that executed Step.
// The last round's sends toward remote receivers are emptied first: their
// receivers live on other replicas, so no local delivery took them.
func (s *Shard) Step() (active int) {
	for _, b := range s.boundary {
		s.net.out[b.ownerSlot].empty()
	}
	s.net.rounds++
	active, _ = s.step()
	return active
}

// ExternalSends calls fn for every queued send of an owned node whose
// receiver lives outside the shard, in (node ID, port) order — the
// coordinator relays these to the owning shards. dstPort is the port AT
// THE RECEIVER, i.e. the argument the receiving shard passes to Inject.
func (s *Shard) ExternalSends(fn func(dst, dstPort int, payload Message)) {
	for _, b := range s.boundary {
		if m := s.net.out[b.ownerSlot]; m.Kind != 0 {
			fn(int(b.remote), int(b.remotePort), m)
		}
	}
}

// Rounds returns the replica's round counter.
func (s *Shard) Rounds() int { return s.net.rounds }
