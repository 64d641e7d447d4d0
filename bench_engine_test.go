package almostmix

// BenchmarkCongestEngine measures simulator throughput (rounds/sec of
// wall-clock, not CONGEST rounds) on a message-heavy workload: k·d(v)
// parallel random walks run as genuine node programs on a 2048-node
// random-regular graph. Sub-benchmarks sweep the worker count of the
// parallel round engine against the sequential reference; the simulated
// results (rounds, messages, arrival histogram) are bit-identical across
// all of them, so the only quantity under test is wall-clock speed.
// Numbers for this host are recorded in EXPERIMENTS.md (E13).

import (
	"fmt"
	"sync"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
)

type engineBenchFx struct {
	g      *graph.Graph
	counts []int
}

var engineBenchShared = sync.OnceValue(func() *engineBenchFx {
	g := graph.RandomRegular(2048, 8, rngutil.NewRand(131))
	return &engineBenchFx{g: g, counts: randomwalk.UniformCountTimesDegree(g, 1)}
})

func BenchmarkCongestEngine(b *testing.B) {
	fx := engineBenchShared()
	const steps = 20
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := randomwalk.RunNetwork(fx.g, fx.counts, steps,
					rngutil.NewSource(131), congest.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkCongestEngineTraced is the same workload with the bundled
// trace sink attached, to quantify the cost of full per-round
// observability relative to BenchmarkCongestEngine's no-probe baseline
// (which must stay probe-free fast: the layer is nil-checked out).
// BenchmarkCongestEngineMetrics is the same workload with a live metrics
// registry attached (no trace sink), isolating the cost of the host-side
// instrument updates — per-round histogram observations, message
// counters, and worker busy accounting — from the trace layer's.
func BenchmarkCongestEngineMetrics(b *testing.B) {
	fx := engineBenchShared()
	const steps = 20
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			reg := metrics.New()
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := randomwalk.RunNetwork(fx.g, fx.counts, steps,
					rngutil.NewSource(131), congest.Options{Workers: workers, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}

// BenchmarkCongestEngineScale sweeps the engines from 10^4 to 10^6 nodes
// on the ticker workload (every node broadcasts a field-less token every
// round) over constant-degree ring lattices, so rounds and per-node work
// are identical across sizes and the reported ns/msg isolates the memory
// layout: with the flat CSR topology and recycled arenas the per-message
// cost must stay essentially flat as n grows (E16 checks it stays within
// 1.6× of the cache-resident n=1e4 point). B/port is what that layout costs: arena bytes
// per directed port, the number the width of congest.Message was chosen
// on. Network construction runs outside the timer; the timed region is Run
// only, i.e. steady rounds plus Init. The 1e6 points peak at 1.1 GB
// resident; `make bench-scale` runs all three sizes.
func BenchmarkCongestEngineScale(b *testing.B) {
	const rounds = 12
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		g := scaleBenchGraph(n)
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("workers=%d", workers)
			if workers == 1 {
				name = "sequential"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				msgs := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					net := congest.NewUniformNetwork(g, func(int) congest.Program {
						return congest.NewTicker(rounds)
					}, rngutil.NewSource(7)).SetWorkers(workers)
					b.StartTimer()
					if _, err := net.Run(rounds + 2); err != nil {
						b.Fatal(err)
					}
					msgs += net.Messages()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
				b.ReportMetric(float64(congest.PortArenaBytes), "B/port")
			})
		}
	}
}

var scaleBenchGraphs sync.Map // n -> *graph.Graph, built once per size

func scaleBenchGraph(n int) *graph.Graph {
	if g, ok := scaleBenchGraphs.Load(n); ok {
		return g.(*graph.Graph)
	}
	g := graph.RingLattice(n, 4)
	scaleBenchGraphs.Store(n, g)
	return g
}

func BenchmarkCongestEngineTraced(b *testing.B) {
	fx := engineBenchShared()
	const steps = 20
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				sink := congest.NewTraceSink()
				res, err := randomwalk.RunNetwork(fx.g, fx.counts, steps,
					rngutil.NewSource(131), congest.Options{Workers: workers, Probe: sink})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
		})
	}
}
