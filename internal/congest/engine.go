package congest

// The round engine. One loop (Network.run) executes every run; the only
// thing SetWorkers changes is how many parts of the network it drives.
// Rounds alternate two phases separated by barriers (see part):
//
//	deliver: build the inboxes of the part's nodes, receiver-driven — a
//	         receiver scans its own ports in order and reads the matching
//	         outbox slot of the sender across each port. Outboxes are only
//	         read in this phase.
//	step:    call Step on the part's live nodes — their outboxes are
//	         empty, the deliver phase took every message — and tally the
//	         earliest round they promised to sleep until. Each node's
//	         outbox, RNG and program state are touched only by the part
//	         that owns it.
//
// With one part both phases run inline on the calling goroutine, in node-ID
// order: that is the sequential reference engine — no pool, no goroutine,
// and not one allocation for a whole run. With k > 1 parts each phase is
// one task per part on a workerPool. Because inboxes are assembled in port
// order at the receiver and every node is owned by exactly one part per
// phase, the execution is bit-identical for every part count: same rounds,
// same message counts, same per-node final state, same per-node RNG
// consumption. Parallelism changes wall-clock time only.
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
// the engine has no shared mutable counters at all; the only cross-part
// communication is the read-only outbox scan in the deliver phase, which
// the barriers order against the writes of the neighboring step phases.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// normalizeWorkers resolves a worker-count request: values <= 0 select one
// worker per available CPU.
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// pad keeps per-worker counters on distinct cache lines.
const pad = 8

// workerPool is a fixed set of goroutines executing one task per shard per
// phase. Program panics are captured and re-raised on the coordinating
// goroutine, preserving the sequential engine's panic semantics.
type workerPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup

	mu     sync.Mutex
	panics []any
}

type poolTask struct {
	fn    func(shard int)
	shard int
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range p.tasks {
				p.runOne(t)
			}
		}()
	}
	return p
}

func (p *workerPool) runOne(t poolTask) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.panics = append(p.panics, r)
			p.mu.Unlock()
		}
	}()
	t.fn(t.shard)
}

// dispatch runs fn once per shard and waits for all shards to finish. If
// any shard panicked, the first panic is re-raised here.
func (p *workerPool) dispatch(shards int, fn func(shard int)) {
	p.wg.Add(shards)
	for w := 0; w < shards; w++ {
		p.tasks <- poolTask{fn: fn, shard: w}
	}
	p.wg.Wait()
	if len(p.panics) > 0 {
		r := p.panics[0]
		p.panics = nil
		panic(r)
	}
}

func (p *workerPool) close() { close(p.tasks) }

// partPool runs the k > 1 parts of a network on a workerPool, one task per
// part per phase. A task leaves its part's tallies in the part's own padded
// slot; the coordinator folds them after the barrier.
type partPool struct {
	*workerPool
	parts                 []part
	deliverTask, stepTask func(w int)
	tally                 []int // tally[w*pad+i]: part w's delivered (0), active (1), halted (2), wake (3)
}

func newPartPool(n *Network, k int, ms *metricsState) *partPool {
	pp := &partPool{workerPool: newWorkerPool(k), parts: make([]part, k), tally: make([]int, k*pad)}
	split := Split{N: n.g.N(), K: k}
	for w := range pp.parts {
		lo, hi := split.Bounds(w)
		pp.parts[w] = part{net: n, lo: lo, hi: hi, w: w}
	}
	pp.deliverTask = func(w int) { pp.tally[w*pad] = pp.parts[w].deliver() }
	pp.stepTask = func(w int) {
		t := pp.tally[w*pad:]
		t[1], t[2], t[3] = pp.parts[w].step()
	}
	if ms != nil {
		// Each worker accumulates its part's busy time around both tasks.
		pp.deliverTask, pp.stepTask = ms.timed(pp.deliverTask), ms.timed(pp.stepTask)
	}
	return pp
}

// deliver and step are part.deliver and part.step over all k parts: one
// barrier each, the parts' counts summed and their wakes' minimum taken.
func (pp *partPool) deliver() int {
	pp.dispatch(len(pp.parts), pp.deliverTask)
	return pp.sum(0)
}

func (pp *partPool) step() (active, halted, wake int) {
	pp.dispatch(len(pp.parts), pp.stepTask)
	wake = math.MaxInt
	for i := 3; i < len(pp.tally); i += pad {
		wake = min(wake, pp.tally[i])
	}
	return pp.sum(1), pp.sum(2), wake
}

func (pp *partPool) sum(i int) (total int) {
	for ; i < len(pp.tally); i += pad {
		total += pp.tally[i]
	}
	return total
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
	n.faultsRunStart(k)
	ms := n.metricsRunStart(k)
	// One part runs inline (pool stays nil: the sequential reference
	// engine builds no closure and allocates nothing); k > 1 run pooled.
	all := n.all()
	var pool *partPool
	if k > 1 {
		pool = newPartPool(n, k, ms)
		defer pool.close()
	}
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
		var delivered, active, next int
		if pool == nil {
			delivered = all.deliver()
		} else {
			delivered = pool.deliver()
		}
		if quiet && n.rounds > 0 && delivered == 0 && n.faultsQuiet() {
			return n.finish(nil)
		}
		n.rounds++
		if pool == nil {
			active, halted, next = all.step()
		} else {
			active, halted, next = pool.step()
		}
		fc := all.FaultCounts()
		if n.probe != nil {
			n.probeRoundFlush(delivered, active, halted, fc)
		}
		if ms != nil {
			ms.Round(time.Since(t0).Nanoseconds(), delivered, fc)
		}
		if !quiet && delivered == 0 {
			n.skipTo(SkipTarget(n.rounds, delivered, all.PendingDelayed(), wake, next, maxRounds), halted)
		}
		wake = next
	}
	if halted == nNodes {
		return n.finish(nil)
	}
	return n.finish(fmt.Errorf("after %d rounds: %w", n.rounds, ErrRoundLimit))
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
// plan's crash count for the round (part.FaultCounts, which also folds it
// into the plan totals; nothing else can fault, nothing is in flight); the
// metrics count it as simulated and skipped.
func (n *Network) skipTo(target, halted int) {
	all := n.all()
	for n.rounds < target {
		n.rounds++
		fc := all.FaultCounts()
		if n.probe != nil {
			n.agg.RoundEnd(n.probe, n.rounds, 0, all.idleActive(), halted, fc)
		}
		if n.ms != nil {
			n.ms.Skipped(fc)
		}
	}
}
