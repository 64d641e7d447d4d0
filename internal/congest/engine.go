package congest

// The round engine. One loop (Network.run) executes every run; the only
// thing SetWorkers changes is how many parts of the network it drives.
// Rounds alternate two phases separated by barriers (see part):
//
//	deliver: build the inboxes of the part's nodes, receiver-driven — a
//	         receiver scans its own row of the outbox arena, one slot per
//	         port in port order, and empties it. Every write of the phase
//	         lands in the part's own rows and inboxes.
//	step:    call Step on the part's live nodes — the arena is empty, the
//	         deliver phase took every message — and tally the earliest
//	         round they promised to sleep until. A send writes the slot of
//	         the receiver's end of the edge, which may belong to another
//	         part; each node's RNG and program state are touched only by
//	         the part that owns it.
//
// The executor: a run's k parts (cut by Split) live for the run. Part 0
// runs every phase on the calling goroutine, each other part on its own
// goroutine, which takes phases from its own channel; a part keeps its
// results in its own struct, and the caller sums them after the barrier.
// One part is the sequential reference engine, in node-ID order: the same
// code with no goroutine, no channel and not one allocation for a whole
// run. Because inboxes are assembled in port order at the receiver and
// every node is owned by exactly one part per phase, the execution is
// bit-identical for every part count: same rounds, same message counts,
// same per-node final state, same per-node RNG consumption. Parallelism
// changes wall-clock time only.
//
// The skip rule (SkipTarget): after a round whose deliver phase delivered
// nothing, with no delayed message pending, in which every live node
// stepped under a sleep promise (Ctx.SleepUntil) reaching past it, that
// step was a no-op everywhere and nothing is in flight; every round before
// the earliest wake the step left is a no-op as well, so the loop counts
// those rounds (skipTo) and goes on with the wake round's deliver phase.
// Runs that the quiet rule ends never skip. The TCP shards apply the same
// rule to the counts they exchange (internal/transport), so both backends
// run, and skip, the same rounds.
//
// Message accounting is sharded per node (Ctx.msgs, incremented only by
// the owning part) and aggregated by Network.Messages after the run, so
// the engine has no shared mutable counters at all. The only cross-part
// communication is a send: the step phase writes receivers' slots, which
// may lie in other parts' rows. Each slot still has one writer, the node
// across its port, and one reader, its receiver, and the barrier between
// the step phase and the next deliver phase orders the two.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"almostmix/internal/faults"
)

// normalizeWorkers resolves a worker-count request: values <= 0 select one
// worker per available CPU.
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// phase names the half of a round a part runs.
type phase uint8

const (
	deliverPhase phase = iota
	stepPhase
)

// startParts cuts the network into k parts by Split for the run and starts
// a goroutine for each part but the first, fed by the part's own phases
// channel. A one-part run's part lives in the Network itself (solo), so it
// starts nothing and allocates nothing. timed makes every part clock its
// phases into its busyNS (metrics.go).
func (n *Network) startParts(k int, timed bool) {
	n.parts = n.solo[:]
	if k > 1 {
		n.parts, n.done = make([]part, k), make(chan struct{}, k-1)
	}
	split := Split{N: n.g.N(), K: k}
	for i := range n.parts {
		p := &n.parts[i]
		lo, hi := split.Bounds(i)
		*p = part{net: n, lo: lo, hi: hi, timed: timed}
		if i > 0 {
			p.phases = make(chan phase, 1)
			go p.serve(n.done)
		}
	}
}

// stopParts closes every other part's phases channel and waits until each
// goroutine has left its loop. run defers it, so no part goroutine
// outlives a run, whichever way the run ends.
func (n *Network) stopParts() {
	for i := 1; i < len(n.parts); i++ {
		close(n.parts[i].phases)
		<-n.done
	}
}

// serve is the loop of a part's own goroutine: run each phase handed to
// it, catching a panic into the part, and report the phase's end on done
// — then, once the channel closes, the loop's own end.
func (p *part) serve(done chan<- struct{}) {
	for ph := range p.phases {
		func() {
			defer func() { p.panicked = recover() }()
			p.run(ph)
		}()
		done <- struct{}{}
	}
	done <- struct{}{}
}

// run runs one phase over the part and leaves its results in the part.
func (p *part) run(ph phase) {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	if ph == deliverPhase {
		p.delivered = p.deliver()
	} else {
		p.active, p.halted, p.wake = p.step()
	}
	if p.timed {
		p.busyNS += time.Since(t0).Nanoseconds()
	}
}

// runPhase runs ph on every part — part 0 here, on the caller, each other
// part on its goroutine — and returns once all have finished: that is the
// barrier between phases. A panicking part stops no other; the caller
// waits for every part and then re-raises the first panic in part order.
func (n *Network) runPhase(ph phase) {
	for i := 1; i < len(n.parts); i++ {
		n.parts[i].phases <- ph
	}
	if len(n.parts) > 1 {
		// A goroutine woken by a send runs next on the sender's P, and an
		// idle P steals it only late: part 1 would mostly wait for part 0
		// (E26). Yielding runs it here and lets an idle P take the caller.
		runtime.Gosched()
	}
	defer func() {
		first := recover() // part 0's
		for i := 1; i < len(n.parts); i++ {
			<-n.done
		}
		for i := 1; i < len(n.parts) && first == nil; i++ {
			first = n.parts[i].panicked
		}
		if first != nil {
			panic(first)
		}
	}()
	n.parts[0].run(ph)
}

// deliver and step are part.deliver and part.step over the run's parts:
// one barrier each, the parts' counts summed and their wakes' minimum
// taken.
func (n *Network) deliver() (delivered int) {
	n.runPhase(deliverPhase)
	for i := range n.parts {
		delivered += n.parts[i].delivered
	}
	return delivered
}

func (n *Network) step() (active, halted, wake int) {
	n.runPhase(stepPhase)
	wake = math.MaxInt
	for i := range n.parts {
		p := &n.parts[i]
		active += p.active
		halted += p.halted
		wake = min(wake, p.wake)
	}
	return active, halted, wake
}

// run is the round loop behind Run and RunUntilQuiet. The network is cut
// into min(workers, nodes) parts by Split; see the package comment above
// for the phase structure, the determinism argument and the skip rule.
func (n *Network) run(maxRounds int, quiet bool) (int, error) {
	if err := n.begin(); err != nil {
		return n.rounds, err
	}
	nNodes := n.g.N()
	k := max(min(n.workers, nNodes), 1)
	n.probeRunStart()
	n.faultsRunStart()
	ms := n.metricsRunStart(k)
	n.startParts(k, ms != nil && k > 1)
	defer n.stopParts()
	all := n.all()
	all.Init()
	if n.probe != nil {
		all.DrainEvents(n.onMark, n.onHalt) // marks/halts emitted during Init, round 0
	}
	halted := all.HaltedCount()
	wake := 0 // the earliest wake the last step promised; Init's promises nothing
	for n.rounds < maxRounds && halted < nNodes {
		var t0 time.Time
		if ms != nil {
			t0 = time.Now()
		}
		delivered, pending := n.deliver(), 0
		if delivered == 0 {
			pending = all.PendingDelayed() // both rules below need a round that delivered nothing
		}
		if quiet && QuietRound(n.rounds, delivered, pending, n.faultPlan) {
			return n.finish(nil)
		}
		n.rounds++
		var active, next int
		active, halted, next = n.step()
		fc := n.faultCounts()
		if n.probe != nil {
			n.probeRoundFlush(delivered, active, halted, fc)
		}
		if ms != nil {
			ms.Round(time.Since(t0).Nanoseconds(), delivered, fc)
			ms.Steps(int64(active))
		}
		if !quiet && delivered == 0 {
			n.skipTo(SkipTarget(n.rounds, delivered, pending, wake, next, maxRounds), halted)
		}
		wake = next
	}
	if halted == nNodes {
		return n.finish(nil)
	}
	return n.finish(fmt.Errorf("after %d rounds: %w", n.rounds, ErrRoundLimit))
}

// QuietRound is the quiet rule, in the one place both backends read it,
// for the deliver phase that follows round: RunUntilQuiet ends there when
// a round has run (round > 0), the phase delivered nothing, no delayed
// message is pending and no crashed node of plan (nil: none) is due to
// recover — a recovery can resume traffic from queued program state.
func QuietRound(round, delivered, pending int, plan *faults.Plan) bool {
	return round > 0 && delivered == 0 && pending == 0 && (plan == nil || plan.QuietAfter(round))
}

// SkipTarget is the skip rule, for runs the quiet rule does not end, in
// the one place both backends read it. Round has run: its deliver phase
// delivered `delivered` messages, `pending` delayed ones are still in
// flight, and every live node stepped under a promise (Ctx.SleepUntil)
// reaching slept at the earliest. When nothing was delivered, nothing is
// pending and slept lies past the round, that step was a no-op everywhere
// and nothing is in flight, so every round before wake — the earliest
// round the step itself promised — is a no-op too. SkipTarget returns the
// round to move the counter to: min(wake − 1, maxRounds), or round itself
// when there is nothing to skip.
func SkipTarget(round, delivered, pending, slept, wake, maxRounds int) int {
	if delivered != 0 || pending != 0 || slept <= round {
		return round
	}
	return max(round, min(wake-1, maxRounds))
}

// skipTo counts the rounds after the current one, up to target, without
// stepping anyone: the skip rule has shown that each of them would step
// every live node with an empty inbox, under its sleep promise — a no-op.
// Each is reported as that no-op round: a probe record with nothing
// delivered, Active the live uncrashed nodes, Halted unchanged and the
// plan's crash count for the round (faultCounts, which also folds it into
// the plan totals; nothing else can fault, nothing is in flight); the
// metrics count it as simulated and skipped.
func (n *Network) skipTo(target, halted int) {
	for n.rounds < target {
		n.rounds++
		fc := n.faultCounts()
		if n.probe != nil {
			n.agg.RoundEnd(n.probe, n.rounds, 0, n.all().idleActive(), halted, fc)
		}
		if n.ms != nil {
			n.ms.Skipped(fc)
		}
	}
}
