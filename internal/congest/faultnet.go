package congest

// Fault injection for the round engine. With a faults.Plan attached
// (SetFaults), the one canonical receiver-driven delivery point —
// Network.deliverTo, which every part of every executor goes through —
// consults the plan per message and injects drops, duplicates and delays;
// crashed nodes neither step nor receive while crashed. All decisions are
// pure hashes of (plan seed, round, directed-edge slot), so a fixed
// (seed, spec) pair reproduces a bit-identical faulty execution for every
// worker and shard count (asserted by the differential suites).
//
// Contract details, mirroring the probe layer's sharding discipline:
//
//   - Delayed messages are buffered per receiver: fs.pending[u] is
//     written and read only while building u's inbox, i.e. only by the
//     part that owns u, so the layer adds no shared
//     mutable state. Due delayed messages are delivered BEFORE the
//     round's fresh messages, in enqueue order — that fixes the one
//     canonical inbox order under faults.
//   - A message is rolled exactly once, at its original delivery round;
//     a delayed message delivers plainly at its due round.
//   - A node crashed in round r (1-based, the round being executed) does
//     not step in r, and every message that would reach it in r — fresh
//     or due-delayed — is dropped and counted. Sends it made before
//     crashing still deliver: they were already in flight. Messages to
//     HALTED nodes keep the fault-free semantics (silently discarded,
//     not counted as fault drops).
//   - Severed edges drop both directions from the sever round on,
//     counted as drops.
//   - Per-round fault counts are accumulated in the delivering part's own
//     counts and drained by the caller between barriers (part.FaultCounts,
//     summed over the run's parts), which also folds them into the plan
//     totals and hands them to the probe record and the metrics counters.
//
// With no plan attached the engine keeps a single nil check on the
// delivery path; an attached-but-empty plan takes the fault path but
// produces byte-identical executions and traces (asserted by tests).

import "almostmix/internal/faults"

// SetFaults attaches a fault-injection plan to the network (nil
// detaches). Like SetProbe it must be called before Run and panics
// afterwards; the receiver returns itself so construction can chain.
func (n *Network) SetFaults(plan *faults.Plan) *Network {
	n.mustConfigure("SetFaults")
	n.faultPlan = plan
	return n
}

// delayedMsg is one in-flight delayed delivery, buffered at the receiver.
type delayedMsg struct {
	due int // 1-based round at which it delivers
	in  Inbound
}

// faultState is the per-run scratch of the fault layer, allocated at run
// start only when a plan is attached.
type faultState struct {
	plan    *faults.Plan
	pending [][]delayedMsg // per receiver; single-writer per phase
}

// faultsRunStart allocates the fault scratch for the run.
func (n *Network) faultsRunStart() {
	if n.faultPlan == nil {
		n.fs = nil
		return
	}
	n.fs = &faultState{
		plan:    n.faultPlan,
		pending: make([][]delayedMsg, n.g.N()),
	}
}

// nodeCrashed reports whether node v is crashed in the current round
// (n.rounds, already incremented when the step phase consults it).
func (n *Network) nodeCrashed(v int) bool {
	return n.fs != nil && n.fs.plan.Crashed(v, n.rounds)
}

// deliverFaulty is the fault-injecting body of deliverTo: it rebuilds
// receiver u's inbox for round n.rounds+1, applying the plan at this one
// point, and counts its events into fc, the calling part's own counts.
func (fs *faultState) deliverFaulty(n *Network, u int, inbox []Inbound, fc *faults.Counts) []Inbound {
	round := n.rounds + 1
	ctx := &n.ctxs[u]

	start, half := n.g.CSR()
	lo, hi := start[u], start[u+1]
	row, ports := n.out[lo:hi], half[lo:hi]
	if ctx.halted {
		// A halted node never steps again: discard anything still aimed
		// at it, delayed or fresh, under the fault-free halted-drop rule.
		fs.pending[u] = fs.pending[u][:0]
		emptyRow(row)
		return inbox
	}
	crashed := fs.plan.Crashed(u, round)

	// Due delayed messages first, in enqueue order.
	kept := fs.pending[u][:0]
	for _, d := range fs.pending[u] {
		switch {
		case d.due > round:
			kept = append(kept, d)
		case crashed:
			fc.Dropped++
		default:
			inbox = append(inbox, d.in)
		}
	}
	fs.pending[u] = kept

	// Fresh messages, receiver-driven in port order over the node's own
	// row — the same canonical scan as the fault-free path, and like it
	// taking every message it reads, whatever its fate.
	for p := range row {
		m := &row[p]
		if m.Kind == 0 {
			continue
		}
		h := ports[p]
		in := Inbound{Port: int32(p), From: h.To, Payload: *m}
		m.Kind = 0
		if crashed || fs.plan.Severed(h.EdgeID(), round) {
			fc.Dropped++
			continue
		}
		// The delivery crosses the receiver's half-edge backwards.
		fate, delay := fs.plan.MessageFate(round, int(h.Arc^1))
		switch fate {
		case faults.Drop:
			fc.Dropped++
		case faults.Duplicate:
			fc.Duplicated++
			inbox = append(inbox, in, in)
		case faults.Delay:
			fc.Delayed++
			fs.pending[u] = append(fs.pending[u], delayedMsg{due: round + delay, in: in})
		default:
			inbox = append(inbox, in)
		}
	}
	return inbox
}
