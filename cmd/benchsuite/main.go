// Command benchsuite runs the repository's standard benchmark set — the
// CONGEST engine (bare and traced), the construction layers (analytic walk
// engine, path scheduler, embed.Build), the embedded-tier route and MST,
// and two hierarchy ablations — under warmup/repetition control and writes a
// schema-versioned BENCH_<git-sha>.json: ns/op, allocs/op, the
// benchmarks' custom metrics (rounds/sec, base-rounds, …) and one
// host-metrics registry snapshot per case from an extra instrumented
// pass. The files start the perf trajectory: successive commits produce
// comparable BENCH_*.json artifacts (see `make bench-json` and CI).
//
// The timed loops run through testing.Benchmark, so ns/op and allocs/op
// mean exactly what `go test -bench` reports; the instrumented pass is
// untimed and never contaminates them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"almostmix/internal/cliutil"
	"almostmix/internal/congest"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/harness"
	"almostmix/internal/metrics"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
	"almostmix/internal/spectral"
	"almostmix/internal/transport"
	_ "almostmix/internal/transport/workloads"
)

// Schema identifies the benchsuite output format.
const Schema = "almostmix-bench/v1"

// Document is the top-level BENCH_<sha>.json structure.
type Document struct {
	Schema     string    `json:"schema"`
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Quick      bool      `json:"quick"`
	BenchTime  string    `json:"benchtime"`
	Warmup     int       `json:"warmup"`
	Reps       int       `json:"reps"`
	Cases      []*Result `json:"cases"`
	// SteadyAllocs records the -gate measurement: steady-state heap
	// allocations per round for each engine configuration (see
	// congest.MeasureSteadyAllocs). The gate fails the run when any
	// entry rounds to a nonzero integer.
	SteadyAllocs map[string]float64 `json:"steady_allocs_per_round,omitempty"`
}

// Result is one benchmark case: the minimum over reps (the conventional
// stable estimator) plus every rep so trajectory tooling can judge noise.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	RepsNsPerOp []float64          `json:"reps_ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Metrics     *metrics.Snapshot  `json:"metrics,omitempty"`
}

// benchCase couples the timed benchmark body with an untimed instrumented
// pass that fills a registry for the embedded snapshot.
type benchCase struct {
	name    string
	bench   func(b *testing.B)
	observe func(reg *metrics.Registry) error
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<sha>.json)")
	quick := flag.Bool("quick", false, "CI scale: small fixtures and -benchtime 1x by default")
	gate := flag.Bool("gate", false, "measure steady-state allocs/round on both engines and fail unless integer-zero")
	benchtime := flag.String("benchtime", "", `per-rep benchmark time, e.g. "1s" or "5x" (default "1s"; "1x" with -quick)`)
	warmup := flag.Int("warmup", 1, "untimed warmup runs per case before the timed reps")
	reps := flag.Int("reps", 3, "timed repetitions per case (minimum is reported)")
	runPat := flag.String("run", "", "regexp selecting case names (default all)")
	sha := flag.String("sha", "", "commit id to stamp into the filename and document (default git rev-parse --short HEAD)")
	testing.Init()
	flag.Parse()
	cliutil.Min("warmup", *warmup, 0)
	cliutil.Min("reps", *reps, 1)
	cliutil.Writable("out", *out)

	if err := run(*out, *quick, *gate, *benchtime, *warmup, *reps, *runPat, *sha); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

func run(out string, quick, gate bool, benchtime string, warmup, reps int, runPat, sha string) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be >= 1 (got %d)", reps)
	}
	if benchtime == "" {
		benchtime = "1s"
		if quick {
			benchtime = "1x"
		}
	}
	filter := regexp.MustCompile("")
	if runPat != "" {
		var err error
		if filter, err = regexp.Compile(runPat); err != nil {
			return fmt.Errorf("-run: %w", err)
		}
	}
	if sha == "" {
		sha = gitSHA()
	}
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", sha)
	}

	doc := &Document{
		Schema:     Schema,
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		BenchTime:  benchtime,
		Warmup:     warmup,
		Reps:       reps,
	}

	cases, err := buildCases(quick)
	if err != nil {
		return err
	}
	for _, c := range cases {
		if !filter.MatchString(c.name) {
			continue
		}
		res, err := runCase(c, benchtime, warmup, reps)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		doc.Cases = append(doc.Cases, res)
		fmt.Printf("%-28s %12.0f ns/op  %9d allocs/op  (%d reps)\n",
			c.name, res.NsPerOp, res.AllocsPerOp, reps)
	}
	if len(doc.Cases) == 0 {
		return fmt.Errorf("-run %q matched no cases", runPat)
	}
	gateErr := error(nil)
	if gate {
		gateErr = runAllocGate(doc)
	}

	err = harness.WriteFile(out, "bench", func(w io.Writer) error { return harness.WriteJSON(w, doc) })
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d cases to %s\n", len(doc.Cases), out)
	// The document is written even on gate failure, so the offending
	// measurement survives as an artifact.
	return gateErr
}

// runAllocGate measures steady-state allocations per round on both
// engines (congest.MeasureSteadyAllocs: R-vs-2R differential, minimum
// over trials) and fails unless every configuration is integer-zero.
// The 0.5 threshold matches congest's alloc_test.go: residual
// hundredths are runtime scheduler/GC noise, while any genuine hot-path
// regression costs at least one allocation per round. It also holds the
// randomwalk/run-* cases that ran to randomwalk.RunAllocCeiling: the
// analytic walk engine allocates a fixed set of flat arrays per run, not
// per walk.
func runAllocGate(doc *Document) error {
	const (
		gateNodes  = 20_000
		gateRounds = 32
		noiseFloor = 0.5
	)
	g := graph.RingLattice(gateNodes, 4)
	doc.SteadyAllocs = make(map[string]float64)
	var failures []string
	// The telemetry configurations attach a live metrics registry (shared
	// across the differential runs so instrument resolution cancels): the
	// zero-alloc contract must hold with host telemetry ON, not just with
	// the layer compiled to its nil fast path.
	reg := metrics.New()
	for _, cfg := range []struct {
		name      string
		workers   int
		telemetry bool
	}{
		{"sequential", 1, false},
		{"workers=8", 8, false},
		{"sequential/telemetry", 1, true},
		{"workers=8/telemetry", 8, true},
	} {
		cfg := cfg
		per := congest.MeasureSteadyAllocs(func() *congest.Network {
			net := congest.NewUniformNetwork(g, func(int) congest.Program {
				return congest.NewTicker(1 << 30)
			}, rngutil.NewSource(9)).SetWorkers(cfg.workers)
			if cfg.telemetry {
				net.SetMetrics(reg)
			}
			return net
		}, gateRounds)
		doc.SteadyAllocs[cfg.name] = per
		status := "ok"
		if per >= noiseFloor {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.3f allocs/round in steady state, want integer-zero", cfg.name, per))
		}
		fmt.Printf("alloc-gate %-22s %8.3f allocs/round  %s\n", cfg.name, per, status)
	}
	for _, c := range doc.Cases {
		if !strings.HasPrefix(c.Name, "randomwalk/run-") {
			continue
		}
		status := "ok"
		if c.AllocsPerOp > randomwalk.RunAllocCeiling {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, ceiling %d", c.Name, c.AllocsPerOp, randomwalk.RunAllocCeiling))
		}
		fmt.Printf("alloc-gate %-22s %8d allocs/op     %s\n", c.Name, c.AllocsPerOp, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("alloc gate: %s", strings.Join(failures, "; "))
	}
	return nil
}

// runCase executes warmup + reps timed runs and one instrumented pass.
func runCase(c *benchCase, benchtime string, warmup, reps int) (*Result, error) {
	// Warmups run at one iteration regardless of the configured benchtime:
	// their job is to populate fixtures and steady-state the allocator.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		return nil, err
	}
	for i := 0; i < warmup; i++ {
		if r := testing.Benchmark(c.bench); r.N == 0 {
			return nil, fmt.Errorf("benchmark failed during warmup")
		}
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	res := &Result{Name: c.name}
	for i := 0; i < reps; i++ {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			return nil, fmt.Errorf("benchmark failed")
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		res.RepsNsPerOp = append(res.RepsNsPerOp, ns)
		if i == 0 || ns < res.NsPerOp {
			res.NsPerOp = ns
			res.AllocsPerOp = r.AllocsPerOp()
			res.BytesPerOp = r.AllocedBytesPerOp()
			res.Extra = r.Extra
		}
	}
	if c.observe != nil {
		reg := metrics.New()
		if err := c.observe(reg); err != nil {
			return nil, fmt.Errorf("instrumented pass: %w", err)
		}
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// buildCases assembles the standard set. Fixtures are constructed here,
// outside every timed loop, and shared by the reps of their case.
func buildCases(quick bool) ([]*benchCase, error) {
	engineN, hierN, ablN := 2048, 128, 96
	if quick {
		engineN, hierN, ablN = 256, 64, 48
	}
	const steps = 20

	eg := graph.RandomRegular(engineN, 8, rngutil.NewRand(131))
	counts := randomwalk.UniformCountTimesDegree(eg, 1)

	hg := graph.RandomRegular(hierN, 8, rngutil.NewRand(21))
	hg.AssignDistinctRandomWeights(rngutil.NewRand(22))
	tau, err := spectral.MixingTime(hg, spectral.Lazy, 1_000_000)
	if err != nil {
		return nil, err
	}
	hp := embed.DefaultParams()
	hp.TauMix = tau
	h, err := embed.Build(hg, hp, rngutil.NewSource(23))
	if err != nil {
		return nil, err
	}
	reqs := route.RandomPermutation(hg, rngutil.NewRand(31))

	ag := graph.RandomRegular(ablN, 8, rngutil.NewRand(77))
	atau, err := spectral.MixingTime(ag, spectral.Lazy, 1_000_000)
	if err != nil {
		return nil, err
	}

	var cases []*benchCase

	// The engine cases mirror BenchmarkCongestEngine{,Traced} in
	// bench_engine_test.go: same workload, same rounds/sec metric.
	for _, workers := range []int{1, 8} {
		workers := workers
		name := "sequential"
		if workers != 1 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		cases = append(cases,
			&benchCase{
				name: "engine/" + name,
				bench: func(b *testing.B) {
					b.ReportAllocs()
					var rounds int
					for i := 0; i < b.N; i++ {
						res, err := randomwalk.RunNetwork(eg, counts, steps,
							rngutil.NewSource(131), congest.Options{Workers: workers})
						if err != nil {
							b.Fatal(err)
						}
						rounds = res.Rounds
					}
					b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
				},
				observe: func(reg *metrics.Registry) error {
					_, err := randomwalk.RunNetwork(eg, counts, steps,
						rngutil.NewSource(131), congest.Options{Workers: workers, Metrics: reg})
					return err
				},
			},
			&benchCase{
				name: "engine-traced/" + name,
				bench: func(b *testing.B) {
					b.ReportAllocs()
					var rounds int
					for i := 0; i < b.N; i++ {
						sink := congest.NewTraceSink()
						res, err := randomwalk.RunNetwork(eg, counts, steps,
							rngutil.NewSource(131), congest.Options{Workers: workers, Probe: sink})
						if err != nil {
							b.Fatal(err)
						}
						rounds = res.Rounds
					}
					b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
				},
				observe: func(reg *metrics.Registry) error {
					sink := congest.NewTraceSink().WithMetrics(reg)
					_, err := randomwalk.RunNetwork(eg, counts, steps,
						rngutil.NewSource(131), congest.Options{Workers: workers, Probe: sink, Metrics: reg})
					return err
				},
			})
	}

	// Engine scale sweep mirroring BenchmarkCongestEngineScale: ticker
	// broadcasts on constant-degree ring lattices, so the ns/msg extra
	// metric isolates the memory layout and must stay essentially flat
	// in n (E16). Quick mode stops at 1e5; the full suite adds the
	// million-node point (~1 GB of fixtures, seconds per rep).
	scaleSizes := []int{10_000, 100_000}
	if !quick {
		scaleSizes = append(scaleSizes, 1_000_000)
	}
	const scaleRounds = 12
	for _, n := range scaleSizes {
		n := n
		sg := graph.RingLattice(n, 4)
		cases = append(cases, &benchCase{
			name: fmt.Sprintf("engine-scale/n=%d", n),
			bench: func(b *testing.B) {
				b.ReportAllocs()
				msgs := 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					net := congest.NewUniformNetwork(sg, func(int) congest.Program {
						return congest.NewTicker(scaleRounds)
					}, rngutil.NewSource(7))
					// Construction just allocated ~n-sized fixtures; a GC
					// cycle paced by that growth can otherwise land inside
					// the timed window and charge its O(1) sudog/stack
					// bookkeeping to the run, which must read exactly 0.
					runtime.GC()
					b.StartTimer()
					if _, err := net.Run(scaleRounds + 2); err != nil {
						b.Fatal(err)
					}
					msgs += net.Messages()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			},
		})
	}

	// The construction layers ROADMAP item 1 lists as rungs: the analytic
	// walk engine (ns per walk step, both walk kinds, recording as Build
	// does; -gate holds allocs/op to randomwalk.RunAllocCeiling), the path
	// scheduler on the G0 embedding (ns per hop), and embed.Build itself on
	// the hierarchy fixture's graph (rr n=64 at -quick scale).
	walkSources := randomwalk.SourcesPerNode(counts)
	for _, walk := range []struct {
		name string
		kind spectral.WalkKind
	}{{"lazy", spectral.Lazy}, {"regular", spectral.Regular}} {
		kind := walk.kind
		cases = append(cases, &benchCase{
			name: "randomwalk/run-" + walk.name,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				rng := rngutil.NewRand(141)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					randomwalk.Run(eg, walkSources, randomwalk.Config{Kind: kind, Steps: steps, Record: true}, rng)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(walkSources)*steps), "ns/step")
			},
		})
	}
	g0Hops := 0
	for _, p := range h.G0.Paths {
		for j := 1; j < len(p); j++ {
			if p[j] != p[j-1] {
				g0Hops++
			}
		}
	}
	cases = append(cases,
		&benchCase{
			name: "pathsched/schedule",
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var makespan int
				for i := 0; i < b.N; i++ {
					makespan = pathsched.Schedule(h.G0.Paths).Makespan
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g0Hops), "ns/hop")
				b.ReportMetric(float64(makespan), "makespan")
			},
		},
		&benchCase{
			name: "embedded/build",
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var rounds int
				for i := 0; i < b.N; i++ {
					bh, err := embed.Build(hg, hp, rngutil.NewSource(26))
					if err != nil {
						b.Fatal(err)
					}
					rounds = bh.ConstructionRoundsBase()
				}
				b.ReportMetric(float64(rounds), "construction-rounds")
			},
			observe: func(reg *metrics.Registry) error {
				bh, err := embed.Build(hg, hp, rngutil.NewSource(26))
				if err != nil {
					return err
				}
				congest.NewTraceSink().WithMetrics(reg).AddCosts("construction", bh.Costs)
				return nil
			},
		})

	// Embedded-tier cases mirror BenchmarkEmbedded{Route,MST}; their
	// instrumented pass pairs the cost-ledger spans with wall clock the
	// way -trace + -metrics do in the cmd binaries.
	cases = append(cases,
		&benchCase{
			name: "embedded/route",
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var rounds int
				for i := 0; i < b.N; i++ {
					rep, err := route.Route(h, reqs, rngutil.NewSource(32))
					if err != nil {
						b.Fatal(err)
					}
					rounds = rep.BaseRounds
				}
				b.ReportMetric(float64(rounds), "base-rounds")
			},
			observe: func(reg *metrics.Registry) error {
				rep, err := route.Route(h, reqs, rngutil.NewSource(32))
				if err != nil {
					return err
				}
				congest.NewTraceSink().WithMetrics(reg).AddCosts("route", rep.Costs)
				return nil
			},
		},
		&benchCase{
			name: "embedded/mst",
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := mst.Run(h, rngutil.NewSource(uint64(300+i)))
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "total-rounds")
			},
			observe: func(reg *metrics.Registry) error {
				res, err := mst.Run(h, rngutil.NewSource(300))
				if err != nil {
					return err
				}
				congest.NewTraceSink().WithMetrics(reg).AddCosts("mst", res.Costs)
				return nil
			},
		},
		&benchCase{
			name: "embedded/ghs-net",
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := mstbase.GHSNetwork(hg, rngutil.NewSource(33), congest.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
			},
			observe: func(reg *metrics.Registry) error {
				_, err := mstbase.GHSNetwork(hg, rngutil.NewSource(33), congest.Options{Workers: 1, Metrics: reg})
				return err
			},
		})

	// Cluster-scoped tier: expander decomposition plus per-cluster
	// hierarchy construction on a poor-expansion graph (the input class
	// the decomposition exists for). The extra metric is the tier's
	// construction cost in base rounds (max over clusters).
	dg := graph.Barbell(16, 8)
	if !quick {
		dg = graph.Barbell(24, 12)
	}
	cases = append(cases, &benchCase{
		name: "decomp/build",
		bench: func(b *testing.B) {
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				dec, err := decomp.Decompose(dg, decomp.Params{})
				if err != nil {
					b.Fatal(err)
				}
				pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(91))
				if err != nil {
					b.Fatal(err)
				}
				rounds = pe.ConstructionRoundsBase()
			}
			b.ReportMetric(float64(rounds), "construction-rounds")
		},
		observe: func(reg *metrics.Registry) error {
			dec, err := decomp.Decompose(dg, decomp.Params{})
			if err != nil {
				return err
			}
			pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(91))
			if err != nil {
				return err
			}
			sink := congest.NewTraceSink().WithMetrics(reg)
			sink.AddCosts("decomp", dec.Costs)
			sink.AddCosts("decomp-build", pe.Costs)
			return nil
		},
	})

	// Two ablation points from bench_ablation_test.go's sweeps, kept small
	// so the suite stays runnable per-commit.
	for _, abl := range []struct {
		name   string
		mutate func(*embed.Params)
	}{
		{"ablation/beta=4", func(p *embed.Params) { p.Beta = 4; p.LeafSize = 12 }},
		{"ablation/walklen=2", func(p *embed.Params) { p.WalkLenFactor = 2 }},
	} {
		abl := abl
		p := embed.DefaultParams()
		p.TauMix = atau
		abl.mutate(&p)
		cases = append(cases, &benchCase{
			name: abl.name,
			bench: func(b *testing.B) {
				b.ReportAllocs()
				var rounds int
				for i := 0; i < b.N; i++ {
					ah, err := embed.Build(ag, p, rngutil.NewSource(78))
					if err != nil {
						b.Fatal(err)
					}
					rep, err := route.Route(ah, route.RandomPermutation(ag, rngutil.NewRand(79)),
						rngutil.NewSource(uint64(80+i)))
					if err != nil {
						b.Fatal(err)
					}
					rounds = rep.BaseRounds
				}
				b.ReportMetric(float64(rounds), "route-rounds")
			},
			observe: func(reg *metrics.Registry) error {
				ah, err := embed.Build(ag, p, rngutil.NewSource(78))
				if err != nil {
					return err
				}
				sink := congest.NewTraceSink().WithMetrics(reg)
				sink.AddCosts("construction", ah.Costs)
				rep, err := route.Route(ah, route.RandomPermutation(ag, rngutil.NewRand(79)),
					rngutil.NewSource(80))
				if err != nil {
					return err
				}
				sink.AddCosts("route", rep.Costs)
				return nil
			},
		})
	}

	// Transport-tcp case: the walks workload through the full wire
	// protocol over loopback, shards as goroutines so the suite needs no
	// tcpnode binary. The extra metric is the p99 cross-shard step-barrier
	// skew from the coordinator's telemetry histograms — the number the
	// obs tier exists to attribute (cmd/obsreport joins it back).
	tn, tsteps := 512, 12
	if quick {
		tn, tsteps = 128, 6
	}
	tspec := transport.Spec{Workload: "walks", Graph: "rr", N: tn, D: 4, K: 1,
		Steps: tsteps, Seed: 131, SrcSeed: 231}
	newTCP := func() transport.TCP {
		return transport.TCP{
			Shards:  2,
			Timeout: 60 * time.Second,
			Spawn: func(shard int, addr string) (transport.ShardHandle, error) {
				done := make(chan error, 1)
				go func() {
					conn, err := transport.DialShard(addr, 10*time.Second)
					if err != nil {
						done <- err
						return
					}
					done <- transport.ServeShard(conn, shard, transport.ShardConfig{})
				}()
				return transport.ShardHandle{Wait: func() error { return <-done }, Kill: func() {}}, nil
			},
		}
	}
	cases = append(cases, &benchCase{
		name: "transport-tcp/shards=2",
		bench: func(b *testing.B) {
			b.ReportAllocs()
			reg := metrics.New()
			tcp := newTCP()
			for i := 0; i < b.N; i++ {
				if _, err := tcp.Run(tspec, transport.Options{Metrics: reg}); err != nil {
					b.Fatal(err)
				}
			}
			if h := reg.Snapshot().Histogram("tcpnet_round_skew_ns"); h != nil && h.Count > 0 {
				b.ReportMetric(float64(h.Quantile(0.99)), "round_skew_p99_ns")
			}
		},
		observe: func(reg *metrics.Registry) error {
			_, err := newTCP().Run(tspec, transport.Options{Metrics: reg})
			return err
		},
	})

	// Faulty transport-tcp case: the same wire protocol with a fault plan
	// every shard replica rebuilds from the spec — deliverFaulty rolling
	// fates on each replica, per-round counts drained with STEPPED,
	// per-shard totals harvested back in TELEMETRY. The merged fault
	// counters land in the BENCH json as extra metrics, so the trajectory
	// records a faulty run's cost next to the fault-free wire baseline.
	// Counts are deterministic in (spec, seed).
	fspec := tspec
	fspec.Workload = "walks-faults"
	fspec.FaultSpec = "drop=0.05,dup=0.05,delay=0.1:2"
	fspec.FaultSeed = 7
	cases = append(cases, &benchCase{
		name: "transport-tcp-faults/shards=2",
		bench: func(b *testing.B) {
			b.ReportAllocs()
			var fc faults.Counts
			tcp := newTCP()
			for i := 0; i < b.N; i++ {
				res, err := tcp.Run(fspec, transport.Options{})
				if err != nil {
					b.Fatal(err)
				}
				fc = res.Faults
			}
			b.ReportMetric(float64(fc.Dropped), "faults-dropped")
			b.ReportMetric(float64(fc.Delayed), "faults-delayed")
			b.ReportMetric(float64(fc.Duplicated), "faults-duplicated")
		},
		observe: func(reg *metrics.Registry) error {
			_, err := newTCP().Run(fspec, transport.Options{Metrics: reg})
			return err
		},
	})
	return cases, nil
}

// gitSHA resolves the short commit id, or "unknown" outside a checkout.
func gitSHA() string {
	ctxOut, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(ctxOut))
}
