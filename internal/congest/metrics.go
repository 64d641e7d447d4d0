package congest

// Host-side metrics for the round engine: the wall-clock analogue of the
// probe layer. Probes report what the simulated network did per round;
// the metrics registry reports what the host did executing it — per-round
// wall time, delivery throughput, worker-shard busy/idle split, and
// allocation deltas sampled via runtime.ReadMemStats at the run's phase
// marks (start and end; ReadMemStats stops the world, so it never runs
// per round).
//
// The contract matches the probe layer's exactly (DESIGN.md §3): with no
// registry attached the hot loop keeps a single nil check per round and
// the engine allocates nothing for the layer; with one attached, every
// instrument is resolved once at run start so the per-round cost is one
// clock read and a few sharded atomic adds. Worker busy time is written
// by the owning worker into a padded per-shard slot (the same sharding
// discipline as Ctx.msgs) and drained by the coordinator after the run's
// final barrier, so the engine stays free of shared mutable state. All
// deterministic metrics (runs, rounds, messages) are bit-identical across
// worker counts; only the wall-time instruments vary by host.

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

// metricsState is the per-run scratch of the metrics layer, allocated at
// run start only when a registry is attached.
type metricsState struct {
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
	dropped, duplicated     *metrics.Counter
	delayedC, crashedRounds *metrics.Counter

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
	reg := n.reg
	ms := &metricsState{
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
	if n.fs != nil {
		ms.dropped = reg.Counter("congest_msgs_dropped_total")
		ms.duplicated = reg.Counter("congest_msgs_duplicated_total")
		ms.delayedC = reg.Counter("congest_msgs_delayed_total")
		ms.crashedRounds = reg.Counter("congest_node_crash_rounds_total")
	}
	if workers > 1 {
		ms.busyNS = make([]int64, workers*pad)
		ms.busyCtr = make([]*metrics.Counter, workers)
		ms.idle = make([]*metrics.Gauge, workers)
		for w := 0; w < workers; w++ {
			ms.busyCtr[w] = reg.Counter(fmt.Sprintf("congest_worker_busy_ns_total{shard=%02d}", w))
			ms.idle[w] = reg.Gauge(fmt.Sprintf("congest_worker_idle_ns{shard=%02d}", w))
		}
	}
	runtime.ReadMemStats(&ms.startMem)
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

// roundEnd records one executed round: its wall time into the fixed
// power-of-two histogram, plus the round and delivery counters.
func (ms *metricsState) roundEnd(t0 time.Time, delivered int, fc faults.Counts) {
	wall := time.Since(t0).Nanoseconds()
	ms.roundHist.Observe(wall)
	ms.roundWallNS += wall
	ms.roundsRun++
	ms.deliveredRun += int64(delivered)
	ms.rounds.Add(1)
	ms.delivered.Add(int64(delivered))
	if ms.dropped != nil {
		ms.dropped.Add(fc.Dropped)
		ms.duplicated.Add(fc.Duplicated)
		ms.delayedC.Add(fc.Delayed)
		ms.crashedRounds.Add(fc.Crashed)
	}
}

// runEnd closes the run: throughput gauges, the closing memstats phase
// mark, and the worker busy/idle drain. Fired from finish, so every
// return path of the round loop lands here exactly once.
func (ms *metricsState) runEnd() {
	elapsed := time.Since(ms.start)
	ms.runs.Add(1)
	ms.runWall.Add(elapsed.Nanoseconds())
	if secs := elapsed.Seconds(); secs > 0 {
		ms.msgsPerSec.Set(float64(ms.deliveredRun) / secs)
		ms.roundsPerSec.Set(float64(ms.roundsRun) / secs)
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	ms.allocs.Add(int64(end.TotalAlloc - ms.startMem.TotalAlloc))
	ms.gcCycles.Add(int64(end.NumGC - ms.startMem.NumGC))
	for w := range ms.busyCtr {
		busy := ms.busyNS[w*pad]
		ms.busyCtr[w].Add(busy)
		if idle := ms.roundWallNS - busy; idle > 0 {
			ms.idle[w].Set(float64(idle))
		} else {
			ms.idle[w].Set(0)
		}
	}
}
