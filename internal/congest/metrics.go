package congest

// Host-side metrics for simulator runs: the wall-clock analogue of the
// probe layer. Probes report what the simulated network did per round;
// the metrics registry reports what the host did executing it — per-round
// wall time, delivery throughput, worker-shard busy/idle split, and
// allocation deltas sampled via runtime.ReadMemStats at the run's phase
// marks (start and end; ReadMemStats stops the world, so it never runs
// per round).
//
// RunMetrics is the one per-run instrument block, and this file the one
// place a congest_* name is written: the in-process round loop and the
// TCP transport's coordinator both close their runs into it, so the two
// backends export the same instruments with the same meaning. Only the
// per-worker busy/idle split is the in-process engine's own.
//
// The contract matches the probe layer's exactly (DESIGN.md §3): with no
// registry attached the hot loop keeps a single nil check per round and
// the engine allocates nothing for the layer; with one attached, every
// instrument is resolved once at run start so the per-round cost is one
// clock read and a few sharded atomic adds. Worker busy time is written
// by the owning worker into a padded per-shard slot (the same sharding
// discipline as Ctx.msgs) and drained by the coordinator after the run's
// final barrier, so the engine stays free of shared mutable state. All
// deterministic metrics (runs, rounds, messages, faults) are bit-identical
// across worker counts and backends; only the wall-time instruments vary
// by host.

import (
	"fmt"
	"runtime"
	"time"

	"almostmix/internal/faults"
	"almostmix/internal/metrics"
)

// SetMetrics attaches a host-metrics registry to the network (nil
// detaches). Like SetProbe it must be called before Run and panics
// afterwards; the receiver returns itself so construction can chain.
func (n *Network) SetMetrics(reg *metrics.Registry) *Network {
	n.mustConfigure("SetMetrics")
	n.reg = reg
	return n
}

// RunMetrics is one run's block of congest_* instruments: run, round,
// message and fault totals, the per-round wall histogram, the throughput
// rates and the run's alloc/GC deltas. StartRunMetrics opens it, Round
// records each executed round, End closes it; every method is a no-op on
// the nil block a run without a registry gets.
type RunMetrics struct {
	start        time.Time
	startMem     runtime.MemStats
	roundsRun    int64
	deliveredRun int64
	roundWallNS  int64

	runs, rounds, delivered   *metrics.Counter
	runWall, allocs, gcCycles *metrics.Counter
	roundHist                 *metrics.Histogram
	msgsPerSec, roundsPerSec  *metrics.Gauge

	// Fault counters, resolved only when the run has a fault plan
	// attached (nil otherwise — the fault-free snapshot is unchanged).
	dropped, duplicated, delayed, crashed *metrics.Counter
}

// StartRunMetrics resolves a run's instruments on reg (registering the
// four fault counters only when faulty) and samples the opening memstats
// phase mark. A nil registry returns nil.
func StartRunMetrics(reg *metrics.Registry, faulty bool) *RunMetrics {
	if reg == nil {
		return nil
	}
	rm := &RunMetrics{
		start:        time.Now(),
		runs:         reg.Counter("congest_runs_total"),
		rounds:       reg.Counter("congest_rounds_total"),
		delivered:    reg.Counter("congest_messages_delivered_total"),
		runWall:      reg.Counter("congest_run_wall_ns_total"),
		allocs:       reg.Counter("congest_alloc_bytes_total"),
		gcCycles:     reg.Counter("congest_gc_cycles_total"),
		roundHist:    reg.Histogram("congest_round_wall_ns", metrics.WallBuckets()),
		msgsPerSec:   reg.Gauge("congest_msgs_per_sec"),
		roundsPerSec: reg.Gauge("congest_rounds_per_sec"),
	}
	if faulty {
		rm.dropped = reg.Counter("congest_msgs_dropped_total")
		rm.duplicated = reg.Counter("congest_msgs_duplicated_total")
		rm.delayed = reg.Counter("congest_msgs_delayed_total")
		rm.crashed = reg.Counter("congest_node_crash_rounds_total")
	}
	runtime.ReadMemStats(&rm.startMem)
	return rm
}

// Round records one executed round: its wall time into the fixed
// power-of-two histogram, plus the round, delivery and fault counters.
func (rm *RunMetrics) Round(wallNS int64, delivered int, fc faults.Counts) {
	if rm == nil {
		return
	}
	rm.roundHist.Observe(wallNS)
	rm.roundWallNS += wallNS
	rm.roundsRun++
	rm.deliveredRun += int64(delivered)
	rm.rounds.Add(1)
	rm.delivered.Add(int64(delivered))
	rm.dropped.Add(fc.Dropped)
	rm.duplicated.Add(fc.Duplicated)
	rm.delayed.Add(fc.Delayed)
	rm.crashed.Add(fc.Crashed)
}

// End closes the run: the run counter and wall time, the throughput
// gauges and the closing memstats phase mark. Call it exactly once, on
// every return path.
func (rm *RunMetrics) End() {
	if rm == nil {
		return
	}
	elapsed := time.Since(rm.start)
	rm.runs.Add(1)
	rm.runWall.Add(elapsed.Nanoseconds())
	if secs := elapsed.Seconds(); secs > 0 {
		rm.msgsPerSec.Set(float64(rm.deliveredRun) / secs)
		rm.roundsPerSec.Set(float64(rm.roundsRun) / secs)
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	rm.allocs.Add(int64(end.TotalAlloc - rm.startMem.TotalAlloc))
	rm.gcCycles.Add(int64(end.NumGC - rm.startMem.NumGC))
}

// metricsState is the engine's per-run metrics scratch, allocated at run
// start only when a registry is attached: the shared block plus the
// per-part accounting.
type metricsState struct {
	*RunMetrics

	// Per-part accounting, allocated only when the run has more than one
	// part (newPartPool wraps its tasks in timed exactly then): busyNS[w*pad]
	// is written only by the worker executing part w's task (ordered against
	// the coordinator's run-end drain by the dispatch barriers), busyCtr and
	// idle are the exported per-part instruments ("shard" in their names).
	busyNS  []int64
	busyCtr []*metrics.Counter
	idle    []*metrics.Gauge
}

// metricsRunStart resolves the run's instruments and samples the opening
// memstats phase mark. It returns nil (the engine's fast path) when no
// registry is attached.
func (n *Network) metricsRunStart(workers int) *metricsState {
	if n.reg == nil {
		return nil
	}
	ms := &metricsState{RunMetrics: StartRunMetrics(n.reg, n.fs != nil)}
	if workers > 1 {
		ms.busyNS = make([]int64, workers*pad)
		ms.busyCtr = make([]*metrics.Counter, workers)
		ms.idle = make([]*metrics.Gauge, workers)
		for w := 0; w < workers; w++ {
			ms.busyCtr[w] = n.reg.Counter(fmt.Sprintf("congest_worker_busy_ns_total{shard=%02d}", w))
			ms.idle[w] = n.reg.Gauge(fmt.Sprintf("congest_worker_idle_ns{shard=%02d}", w))
		}
	}
	n.ms = ms
	return ms
}

// timed wraps a phase task so the owning worker accumulates its shard's
// busy time. Each slot has a single writer per dispatch and the pool's
// barriers order writes across dispatches, so plain adds suffice.
func (ms *metricsState) timed(fn func(shard int)) func(shard int) {
	return func(w int) {
		t0 := time.Now()
		fn(w)
		ms.busyNS[w*pad] += time.Since(t0).Nanoseconds()
	}
}

// runEnd closes the run: the shared block, then the worker busy/idle
// drain. Fired from finish, so every return path of the round loop lands
// here exactly once.
func (ms *metricsState) runEnd() {
	ms.End()
	for w := range ms.busyCtr {
		busy := ms.busyNS[w*pad]
		ms.busyCtr[w].Add(busy)
		ms.idle[w].Set(float64(max(ms.roundWallNS-busy, 0)))
	}
}
