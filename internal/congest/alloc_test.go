package congest

// The allocation-regression suite: the hot-path contract (package doc,
// DESIGN.md §3) is that a steady-state round allocates NOTHING on either
// engine once the arenas are warm. These tests pin that number at zero
// on the integer scale (see SteadyAllocNoiseFloor) — any append that
// escapes an arena, any map lookup that boxes, any per-round scratch
// that grows shows up here as at least one alloc/round and fails the
// build.
//
// Measurement: networks are single-use, so a bare testing.AllocsPerRun
// around Run would charge construction and run-start scratch to every
// sample. MeasureSteadyAllocs (workload.go) instead differences an
// R-round run against a 2R-round run of the same configuration — the
// construction, run-start and warmup-growth costs appear in both and
// cancel, leaving the marginal cost of R steady rounds.
//
// Documented constants:
//   - bare engines, either worker count: 0 allocs/round;
//   - counting (non-retaining) probe attached: 0 — probeRoundFlush
//     refills one reused RoundRecord and reuses its scratch slices;
//   - drop/sever/crash faults: 0 — fate decisions are pure hashes;
//   - duplication/delay faults: not zero in general, because duplicated
//     deliveries regrow inboxes past the arena subslice and delayed
//     messages grow per-receiver pending queues; both retain their
//     capacity, so the cost amortizes downward with the window length
//     (measured ~0.54 allocs/round at 48 rounds, ~0.38 at 384, on the
//     gate's exact configuration) and is asserted below
//     growthFaultAllocBound;
//   - retaining probes (TraceSink): O(1) records retained per round by
//     design — that cost belongs to the sink, not the engines, and is
//     deliberately not asserted to be zero.

import (
	"fmt"
	"testing"
	"testing/quick"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// countingProbe is a non-retaining probe: it reads every record it is
// handed (forcing the probe layer to do its full per-round aggregation)
// but keeps only scalars.
type countingProbe struct {
	NopProbe
	rounds    int
	delivered int
	maxLoad   int64
}

func (p *countingProbe) RoundEnd(rec *RoundRecord) {
	p.rounds++
	p.delivered += rec.Delivered
	for _, l := range rec.EdgeLoad {
		if l > p.maxLoad {
			p.maxLoad = l
		}
	}
}

func steadyBuilder(g *graph.Graph, workers int, probe bool, spec string) func() *Network {
	return func() *Network {
		net := NewUniformNetwork(g, func(int) Program { return NewTicker(1 << 30) }, rngutil.NewSource(7))
		net.SetWorkers(workers)
		if probe {
			net.SetProbe(&countingProbe{})
		}
		if spec != "" {
			plan, err := faults.Parse(spec, 99)
			if err != nil {
				panic(err)
			}
			net.SetFaults(plan)
		}
		return net
	}
}

// TestSteadyRoundsZeroAlloc is the regression gate for the zero-alloc
// contract: integer-zero allocs/round for the bare engines, the probed
// engines, and the buffer-stable fault fates, on both the sequential
// and the sharded parallel engine. The walk and GHS programs carry the
// same gate in their own packages, which this one cannot import
// (TestSteadyRoundsZeroAlloc in randomwalk and in mstbase). The last
// input is the E16 scale point: the arenas and the CSR layout must hold
// at n = 1e5, not only on unit-test-sized graphs (sequential only —
// workers=8 at that size takes 94 s under -race, and the n = 512 rows
// cover the parallel engine).
func TestSteadyRoundsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	small, large := graph.RingLattice(512, 4), graph.RingLattice(100_000, 4)
	cases := []struct {
		name    string
		g       *graph.Graph
		rounds  int
		workers int
		probe   bool
		spec    string
	}{
		{"sequential/bare", small, 48, 1, false, ""},
		{"sequential/probe", small, 48, 1, true, ""},
		{"sequential/faults-drop", small, 48, 1, false, "drop=0.3"},
		{"sequential/faults-crash-sever", small, 48, 1, false, "drop=0.1,crash=3@4+6,sever=2@5"},
		{"workers=2/bare", small, 48, 2, false, ""},
		{"workers=8/bare", small, 48, 8, false, ""},
		{"workers=8/probe", small, 48, 8, true, ""},
		{"workers=8/faults-drop", small, 48, 8, false, "drop=0.3"},
		{"sequential/bare/n=100000", large, 12, 1, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			per := MeasureSteadyAllocs(steadyBuilder(tc.g, tc.workers, tc.probe, tc.spec), tc.rounds)
			if per >= SteadyAllocNoiseFloor {
				t.Fatalf("steady-state round allocates: %.3f allocs/round, want 0 (< %.1f)", per, SteadyAllocNoiseFloor)
			}
			if per != 0 {
				t.Logf("residual %.3f allocs/round (runtime noise floor, see SteadyAllocNoiseFloor)", per)
			}
		})
	}
}

// growthFaultAllocBound is the measured regression bound for the one
// documented exception to the zero gate. On the exact configuration
// asserted below — RingLattice(512,4), sequential engine, spec
// "dup=0.1,delay=0.2:2", 48-round differential window — repeated
// measurement gives 0.50–0.55 allocs/round (max observed 0.5417), and
// the rate falls with longer windows (~0.38 at 384 rounds), confirming
// the cost is buffer regrowth that amortizes rather than a per-round
// leak. The residual sits ABOVE SteadyAllocNoiseFloor because dup
// regrows inboxes past their arena subslices and delay maintains
// per-receiver pending queues, so this gate carries its own threshold:
// 0.65 leaves headroom over the observed max of 0.5417 while still
// tripping decisively on any real regression, which costs at least one
// whole allocation per round (usually per message, i.e. hundreds here).
const growthFaultAllocBound = 0.65

// TestSteadyRoundsZeroAllocWithTelemetry extends the zero gate to the
// full telemetry stack: a metrics registry AND a counting probe
// attached together must keep steady rounds allocation-free. The
// metrics layer resolves every instrument once at run start
// (metricsRunStart) so a steady round's cost is clock reads and
// sharded atomic adds; the registry is shared across the differential
// runs, so even first-resolution map growth cancels.
func TestSteadyRoundsZeroAllocWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RingLattice(512, 4)
	const rounds = 48
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := metrics.New()
			per := MeasureSteadyAllocs(func() *Network {
				net := NewUniformNetwork(g, func(int) Program { return NewTicker(1 << 30) }, rngutil.NewSource(7))
				net.SetWorkers(workers)
				net.SetProbe(&countingProbe{})
				net.SetMetrics(reg)
				return net
			}, rounds)
			if per >= SteadyAllocNoiseFloor {
				t.Fatalf("telemetry-on steady round allocates: %.3f allocs/round, want 0 (< %.1f)",
					per, SteadyAllocNoiseFloor)
			}
			if per != 0 {
				t.Logf("residual %.3f allocs/round (runtime noise floor)", per)
			}
		})
	}
}

// TestSteadyRoundsGrowthFaultsBounded pins the one documented exception:
// duplication and delay fates regrow inbox and pending buffers, which
// retain their capacity — so the steady cost must stay under the
// measured bound rather than under the integer-zero noise floor.
func TestSteadyRoundsGrowthFaultsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RingLattice(512, 4)
	per := MeasureSteadyAllocs(steadyBuilder(g, 1, false, "dup=0.1,delay=0.2:2"), 48)
	if per >= growthFaultAllocBound {
		t.Fatalf("duplication/delay faults allocate %.3f/round, want < %.2f (measured ~0.54 max)",
			per, growthFaultAllocBound)
	}
	t.Logf("dup/delay steady cost %.4f allocs/round (bound %.2f)", per, growthFaultAllocBound)
}

// shardFaultyRun executes `rounds` coordinator-driven shard rounds under
// a fault plan — the TCP backend's per-round hot path (deliver, step,
// drain counts) on a full-range shard, with no wire in between. The
// replica rolls fates from its own plan, as every tcpnode process does.
func shardFaultyRun(g *graph.Graph, spec string, rounds int) {
	plan, err := faults.Parse(spec, 99)
	if err != nil {
		panic(err)
	}
	net := NewUniformNetwork(g, func(int) Program { return NewTicker(1 << 30) }, rngutil.NewSource(7))
	net.SetFaults(plan)
	s, err := NewShard(net, 0, g.N())
	if err != nil {
		panic(err)
	}
	s.Init()
	var total faults.Counts
	for r := 0; r < rounds; r++ {
		s.Deliver()
		s.Step()
		total.Add(s.FaultCounts())
	}
}

// TestShardFaultyRoundsZeroAlloc extends the zero gate to the TCP
// backend's side of a faulty round: a shard replica hashing fates from
// the plan it rebuilt from the spec must keep steady deliver/step/drain
// rounds allocation-free for the buffer-stable fates (drop, crash,
// sever), exactly like the in-process engines.
func TestShardFaultyRoundsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RingLattice(512, 4)
	const rounds = 48
	for _, spec := range []string{"drop=0.3", "drop=0.1,crash=3@4+6,sever=2@5"} {
		t.Run(spec, func(t *testing.T) {
			per := measureSteadyAllocsFunc(func(r int) {
				shardFaultyRun(g, spec, r)
			}, rounds)
			if per >= SteadyAllocNoiseFloor {
				t.Fatalf("faulty shard round allocates: %.3f allocs/round, want 0 (< %.1f)", per, SteadyAllocNoiseFloor)
			}
			if per != 0 {
				t.Logf("residual %.3f allocs/round (runtime noise floor)", per)
			}
		})
	}
}

// newNetworkAllocCeiling bounds the heap objects NewNetwork allocates
// whatever the graph's size: the network, its contexts, the inbox
// headers, the two message arenas and the peer table with the cursors
// that fill it — 8 measured on RingLattice(4096, 4). The ports
// themselves are the graph's CSR, which NewNetwork only reads; a per-node
// table or sort shows up here as O(n) objects.
const newNetworkAllocCeiling = 10

func TestNewNetworkAllocs(t *testing.T) {
	g := graph.RingLattice(4096, 4)
	programs := make([]Program, g.N())
	for v := range programs {
		programs[v] = NewTicker(1)
	}
	src := rngutil.NewSource(1)
	allocs := testing.AllocsPerRun(5, func() { NewNetwork(g, programs, src) })
	if allocs > newNetworkAllocCeiling {
		t.Fatalf("NewNetwork allocates %.0f objects, want <= %d", allocs, newNetworkAllocCeiling)
	}
	t.Logf("NewNetwork: %.0f objects", allocs)
}

// TestPortOfMatchesMapReference is the differential property test for
// the port lookup: on random graphs, Ctx.PortTo must agree with the
// obvious map-based reference built from the graph's own adjacency — for
// every adjacent pair in both directions, for absent pairs and for self.
func TestPortOfMatchesMapReference(t *testing.T) {
	property := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%30) + 2
		p := float64(pRaw%100) / 99
		g := graph.Gnp(n, p, rngutil.NewRand(seed))
		net := NewUniformNetwork(g, func(int) Program { return NewTicker(1) }, rngutil.NewSource(1))

		ref := make([]map[int]int, n)
		for v := 0; v < n; v++ {
			ref[v] = make(map[int]int, g.Degree(v))
			for port, h := range g.Neighbors(v) {
				ref[v][int(h.To)] = port
			}
		}
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				want, ok := ref[v][u]
				if !ok {
					want = -1
				}
				if got := net.ctxs[v].PortTo(u); got != want {
					t.Logf("seed=%d n=%d p=%.2f: PortTo(%d,%d)=%d, want %d", seed, n, p, v, u, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCtxPortToRoundTrip checks the public lookup against NeighborID on
// structured high-degree graphs (the star stresses the asymmetric case:
// the hub scans a long range, each leaf a single entry).
func TestCtxPortToRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(64), graph.Complete(24), graph.Lollipop(10, 5)} {
		net := NewUniformNetwork(g, func(int) Program { return NewTicker(1) }, rngutil.NewSource(1))
		for v := 0; v < g.N(); v++ {
			ctx := &net.ctxs[v]
			for port := 0; port < ctx.Degree(); port++ {
				u := ctx.NeighborID(port)
				if got := ctx.PortTo(u); got != port {
					t.Fatalf("node %d: PortTo(NeighborID(%d)=%d) = %d", v, port, u, got)
				}
			}
			if got := ctx.PortTo(v); got != -1 {
				t.Fatalf("node %d: PortTo(self) = %d, want -1", v, got)
			}
		}
	}
}
