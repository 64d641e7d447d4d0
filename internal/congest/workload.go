package congest

// Benchmark/regression workloads for the hot path. The ticker is the
// canonical steady-state load: every node broadcasts a field-less token
// on every port every round, so a steady round moves the maximum 2m
// messages with no program-side work — what the delivery path does per
// round is exactly what the measurement sees.

import (
	"errors"
	"runtime"
)

// Tick is the record tickers broadcast: a kind and no fields.
var Tick = Message{Kind: kindTick}

// ticker broadcasts Tick on every port each round and halts after the
// configured round. It is stateless per round; one instance may be
// shared by every node of a network.
type ticker struct{ rounds int }

// NewTicker returns the steady-state benchmark program: broadcast a
// field-less token on every port each round, halt after `rounds` rounds.
func NewTicker(rounds int) Program { return &ticker{rounds: rounds} }

func (t *ticker) Init(ctx *Ctx) { ctx.Broadcast(Tick) }

func (t *ticker) Step(ctx *Ctx, inbox []Inbound) {
	if ctx.Round() >= t.rounds {
		ctx.Halt()
		return
	}
	ctx.Broadcast(Tick)
}

// SteadyAllocNoiseFloor is the threshold the zero-alloc gates hold
// MeasureSteadyAllocs to (alloc_test.go here, the walk and GHS rows in
// their own packages): a steady round must allocate 0 on the integer
// scale, i.e. measured allocs/round < 0.5. The measurement cannot demand
// a literal 0.000: the round barriers of a multi-part run park workers on
// channels, and the runtime re-allocates its cached sudog/stack
// bookkeeping whenever a GC cycle lands inside a window — an
// O(1)-per-GC cost outside the engine that shows up as a few hundredths
// per round. Any genuine hot-path regression is at least one allocation
// per ROUND (usually per node or per message, i.e. hundreds on the gated
// inputs), so the gate still trips decisively.
const SteadyAllocNoiseFloor = 0.5

// MeasureSteadyAllocs reports the average heap allocations per
// steady-state round of an engine configuration, by differencing two
// otherwise-identical runs of `rounds` and `2·rounds` rounds: network
// construction, run-start scratch (probe/fault/metrics state, the parts
// and their goroutines) and warmup growth appear in both runs and cancel, leaving only
// what a steady round allocates. build must return a fresh Network with
// identical construction on every call (networks are single-use);
// ErrRoundLimit from the run is tolerated so non-halting workloads can
// be cut off at the measured round count.
//
// The measurement pins GOMAXPROCS to 1 (like testing.AllocsPerRun) so
// scheduler-dependent allocation noise cannot leak in; a multi-part
// run still exercises its full barrier structure, merely serialized.
// Residual runtime noise (a GC cycle landing inside one window) is
// strictly additive, so the minimum over a few independent short/long
// pairs converges to the true steady cost — which keeps a strict == 0
// regression gate assertable (alloc_test.go) and is what the repo
// benchmark reports as congest.steady_allocs_per_round.
func MeasureSteadyAllocs(build func() *Network, rounds int) float64 {
	return measureSteadyAllocsFunc(func(r int) {
		if _, err := build().Run(r); err != nil && !errors.Is(err, ErrRoundLimit) {
			panic(err)
		}
	}, rounds)
}

// measureSteadyAllocsFunc is MeasureSteadyAllocs for an arbitrary run
// function: run(r) must execute r rounds of the configuration under
// measurement, with identical setup on every call. It exists for round
// loops the Network does not drive itself — the shard harness under an
// external coordinator (alloc_test.go).
func measureSteadyAllocsFunc(run func(rounds int), rounds int) float64 {
	measure := func(r int) float64 {
		return allocsPerRun(3, func() { run(r) })
	}
	const trials = 3
	best := 0.0
	for trial := 0; trial < trials; trial++ {
		short := measure(rounds)
		long := measure(2 * rounds)
		per := (long - short) / float64(rounds)
		if per < 0 {
			per = 0 // jitter on an allocation-free path
		}
		if trial == 0 || per < best {
			best = per
		}
		if best == 0 {
			break
		}
	}
	return best
}

// allocsPerRun mirrors testing.AllocsPerRun without importing testing
// into the non-test build: one warmup call, then the average mallocs of
// runs calls under GOMAXPROCS(1).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warmup: steady-states allocator caches and arena growth
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
