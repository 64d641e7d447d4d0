package congest

// The round engine. One loop (Network.run) executes every run; the only
// thing SetWorkers changes is how many parts of the network it drives.
// Rounds alternate two phases separated by barriers (see part):
//
//	deliver: build the inboxes of the part's nodes, receiver-driven — a
//	         receiver scans its own ports in order and reads the matching
//	         outbox slot of the sender across each port. Outboxes are only
//	         read in this phase.
//	step:    clear the outboxes of the part's nodes and call Step on the
//	         live ones. Each node's outbox, RNG and program state are
//	         touched only by the part that owns it.
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
// Message accounting is sharded per node (Ctx.msgs, incremented only by
// the owning part) and aggregated by Network.Messages after the run, so
// the engine has no shared mutable counters at all; the only cross-part
// communication is the read-only outbox scan in the deliver phase, which
// the barriers order against the writes of the neighboring step phases.

import (
	"fmt"
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
// slot; the coordinator sums them after the barrier.
type partPool struct {
	*workerPool
	parts                 []part
	deliverTask, stepTask func(w int)
	tally                 []int // tally[w*pad+i]: part w's delivered (0), active (1), halted (2)
}

func newPartPool(n *Network, k int, ms *metricsState) *partPool {
	pp := &partPool{workerPool: newWorkerPool(k), parts: make([]part, k), tally: make([]int, k*pad)}
	split := Split{N: n.g.N(), K: k}
	for w := range pp.parts {
		lo, hi := split.Bounds(w)
		pp.parts[w] = part{net: n, lo: lo, hi: hi, w: w}
	}
	pp.deliverTask = func(w int) { pp.tally[w*pad] = pp.parts[w].deliver() }
	pp.stepTask = func(w int) { pp.tally[w*pad+1], pp.tally[w*pad+2] = pp.parts[w].step() }
	if ms != nil {
		// Each worker accumulates its part's busy time around both tasks.
		pp.deliverTask, pp.stepTask = ms.timed(pp.deliverTask), ms.timed(pp.stepTask)
	}
	return pp
}

// deliver and step are part.deliver and part.step over all k parts: one
// barrier each, the parts' tallies summed.
func (pp *partPool) deliver() int {
	pp.dispatch(len(pp.parts), pp.deliverTask)
	return pp.sum(0)
}

func (pp *partPool) step() (active, halted int) {
	pp.dispatch(len(pp.parts), pp.stepTask)
	return pp.sum(1), pp.sum(2)
}

func (pp *partPool) sum(i int) (total int) {
	for ; i < len(pp.tally); i += pad {
		total += pp.tally[i]
	}
	return total
}

// run is the round loop behind Run and RunUntilQuiet. The network is cut
// into min(workers, nodes) parts by Split; see the package comment above
// for the phase structure and the determinism argument.
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
	for r := 0; r < maxRounds && halted < nNodes; r++ {
		var t0 time.Time
		if ms != nil {
			t0 = time.Now()
		}
		var delivered, active int
		if pool == nil {
			delivered = all.deliver()
		} else {
			delivered = pool.deliver()
		}
		if quiet && r > 0 && delivered == 0 && n.faultsQuiet() {
			return n.finish(nil)
		}
		n.rounds++
		if pool == nil {
			active, halted = all.step()
		} else {
			active, halted = pool.step()
		}
		fc := all.FaultCounts()
		if n.probe != nil {
			n.probeRoundFlush(delivered, active, halted, fc)
		}
		if ms != nil {
			ms.Round(time.Since(t0).Nanoseconds(), delivered, fc)
		}
	}
	if halted == nNodes {
		return n.finish(nil)
	}
	return n.finish(fmt.Errorf("after %d rounds: %w", n.rounds, ErrRoundLimit))
}
