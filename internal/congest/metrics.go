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
// per-part busy/idle split is the in-process engine's own.
//
// The contract matches the probe layer's exactly (DESIGN.md §3): with no
// registry attached the hot loop keeps a single nil check per round and
// the engine allocates nothing for the layer; with one attached, every
// instrument is resolved once at run start so the per-round cost is one
// clock read and a few sharded atomic adds. A part's busy time is written
// by whoever runs the part into the part's own struct (the same sharding
// discipline as Ctx.msgs) and read by the caller after the run's final
// barrier, so the engine stays free of shared mutable state. All
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
// message, node-step and fault totals, the per-round wall histogram, the
// throughput rates and the run's alloc/GC deltas. StartRunMetrics opens
// it, Round records each executed round and Skipped each round the skip
// rule counted without executing it, Steps the node steps executed, End
// closes it; every method is a no-op on the nil block a run without a
// registry gets. congest_rounds_total counts both kinds of round (every
// simulated round), congest_rounds_skipped_total the second, and the wall
// histogram executed rounds only. congest_node_steps_total counts Step
// calls: the sum of Active over the executed rounds, which a skipped
// round's no-op steps are not part of.
type RunMetrics struct {
	start        time.Time
	startMem     runtime.MemStats
	roundsRun    int64
	deliveredRun int64
	roundWallNS  int64

	runs, rounds, skipped     *metrics.Counter
	delivered, steps          *metrics.Counter
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
		skipped:      reg.Counter("congest_rounds_skipped_total"),
		delivered:    reg.Counter("congest_messages_delivered_total"),
		steps:        reg.Counter("congest_node_steps_total"),
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

// Steps adds k node steps (Step calls) to congest_node_steps_total: the
// engine adds each executed round's Active, the TCP coordinator each
// shard's total for the run.
func (rm *RunMetrics) Steps(k int64) {
	if rm == nil {
		return
	}
	rm.steps.Add(k)
}

// Skipped records one round the skip rule counted without executing it:
// a simulated round, and its fault counts (crashed node-rounds; nothing is
// in flight to drop, duplicate or delay), but no wall time.
func (rm *RunMetrics) Skipped(fc faults.Counts) {
	if rm == nil {
		return
	}
	rm.roundsRun++
	rm.rounds.Add(1)
	rm.skipped.Add(1)
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
// start only when a registry is attached: the shared block plus, when the
// run has more than one part, the exported per-part instruments ("shard"
// in their names) that runEnd fills from the parts' busy time.
type metricsState struct {
	*RunMetrics
	busyCtr []*metrics.Counter
	idle    []*metrics.Gauge
}

// metricsRunStart resolves the run's instruments and samples the opening
// memstats phase mark. It returns nil (the engine's fast path) when no
// registry is attached.
func (n *Network) metricsRunStart(parts int) *metricsState {
	if n.reg == nil {
		return nil
	}
	ms := &metricsState{RunMetrics: StartRunMetrics(n.reg, n.fs != nil)}
	if parts > 1 {
		ms.busyCtr = make([]*metrics.Counter, parts)
		ms.idle = make([]*metrics.Gauge, parts)
		for w := 0; w < parts; w++ {
			ms.busyCtr[w] = n.reg.Counter(fmt.Sprintf("congest_worker_busy_ns_total{shard=%02d}", w))
			ms.idle[w] = n.reg.Gauge(fmt.Sprintf("congest_worker_idle_ns{shard=%02d}", w))
		}
	}
	n.ms = ms
	return ms
}

// runEnd closes the run: the shared block, then each part's busy time
// (part.busyNS, clocked by the part itself) and idle remainder. Fired from
// finish, so every return path of the round loop lands here exactly once.
func (ms *metricsState) runEnd(parts []part) {
	ms.End()
	for w := range ms.busyCtr {
		busy := parts[w].busyNS
		ms.busyCtr[w].Add(busy)
		ms.idle[w].Set(float64(max(ms.roundWallNS-busy, 0)))
	}
}
