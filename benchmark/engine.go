package main

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// Sizes of the three engine-tier workloads. Workers and Shards are pinned
// at 2, the nproc of the host the benchmark was sized on; on the one P of
// benchProcs they take turns, so the parallel engine's and the wire
// protocol's code paths are timed and their parallelism is not (the traced
// run's congest.parallel_speedup probe measures that). TCP shards run as
// goroutines of this process over loopback: the figures are the wire
// protocol's cost on one host, not a real link's.
const (
	engineWorkers = 2
	tcpShards     = 2
	tcpTimeout    = 60 * time.Second
	walkSteps     = 20

	procWalkNodes = 1024 // engine-proc: 327 680 msgs in ≈ 70 rounds on the parallel engine…
	procWalkK     = 2
	procGHSNodes  = 256  // …and ≈ 3 900 rounds for ≈ 13 000 msgs on the sequential one
	tcpWalkNodes  = 2048 // tcp-msgs: 327 680 msgs in ≈ 47 rounds
	tcpWalkK      = 1
	// tcp-rounds: ≈ 600 barriers for ≈ 2 000 msgs. GHS takes 3n+6 rounds
	// per phase; at n = 48 nineteen graphs in twenty need four phases,
	// where n = 128 splits evenly between four and five and would make
	// the median op time bimodal.
	tcpGHSNodes = 48

	walkSpecs = 4 // pool sizes: op i runs spec i mod pool size
	ghsSpecs  = 16

	faultSpec = "drop=0.05,dup=0.05,delay=0.1:2"
)

// reference is one replayable spec with the outcome every backend must
// reproduce: the sequential in-process run, made in set-up.
type reference struct {
	spec transport.Spec
	want transport.Result
	g    *graph.Graph
	mst  []int // ghs: Kruskal's edge IDs, ascending
}

func walksSpec(src *rngutil.Source, j uint64, n, k int) transport.Spec {
	return transport.Spec{
		Workload: "walks", Graph: "rr", N: n, D: expanderDegree, K: k, Steps: walkSteps,
		Seed: src.Derive("walks-graph", j), SrcSeed: src.Derive("walks-src", j),
	}
}

func ghsSpec(src *rngutil.Source, j uint64, n int) transport.Spec {
	return transport.Spec{
		Workload: "ghs", Graph: "rr", N: n, D: expanderDegree,
		Seed: src.Derive("ghs-graph", j), SrcSeed: src.Derive("ghs-src", j),
		// Zero means "unweighted" to BuildGraph.
		WeightSeed: src.Derive("ghs-weights", j) | 1,
	}
}

func newReference(spec transport.Spec, t *tracer) (reference, error) {
	ref := reference{spec: spec}
	var err error
	t.call("graph.build", func() { ref.g, err = transport.BuildGraph(spec) })
	if err != nil {
		return ref, err
	}
	t.call("transport.reference", func() { ref.want, err = transport.Proc{Workers: 1}.Run(spec, transport.Options{}) })
	if err != nil {
		return ref, fmt.Errorf("reference run of %s: %w", spec.Workload, err)
	}
	if spec.Workload == "ghs" {
		ref.mst = kruskal(ref.g)
	}
	return ref, nil
}

func newReferences(count int, spec func(j uint64) transport.Spec, t *tracer) ([]reference, error) {
	refs := make([]reference, count)
	for j := range refs {
		var err error
		if refs[j], err = newReference(spec(uint64(j)), t); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// check is the engine-tier oracle: rounds, messages and output equal the
// reference run, every issued walk token arrived, and the GHS edge set is
// Kruskal's edge for edge.
func (ref reference) check(got transport.Result) error {
	if got.Rounds != ref.want.Rounds || got.Messages != ref.want.Messages {
		return fmt.Errorf("%s: %d rounds / %d messages, reference %d / %d",
			ref.spec.Workload, got.Rounds, got.Messages, ref.want.Rounds, ref.want.Messages)
	}
	if !reflect.DeepEqual(got.Output, ref.want.Output) {
		return fmt.Errorf("%s: output %v, reference %v", ref.spec.Workload, got.Output, ref.want.Output)
	}
	switch out := got.Output.(type) {
	case workloads.WalksOutput:
		if issued := ref.spec.K * 2 * ref.g.M(); out.Arrived != issued {
			return fmt.Errorf("walks: %d of %d tokens arrived", out.Arrived, issued)
		}
	case workloads.MSTOutput:
		if diff := sameEdges(out.Edges, ref.mst); diff != 0 {
			return fmt.Errorf("ghs: edge set differs from Kruskal's in %d edges", diff)
		}
	default:
		return fmt.Errorf("%s: unexpected output type %T", ref.spec.Workload, got.Output)
	}
	return nil
}

// run executes ref's spec on tr inside a span and checks the result.
func (ref reference) run(tr transport.Transport, opts transport.Options, spanName string, t *tracer) (transport.Result, error) {
	var res transport.Result
	var err error
	t.call(spanName, func() { res, err = tr.Run(ref.spec, opts) })
	if err == nil {
		t.call(spanOracle, func() { err = ref.check(res) })
	}
	if err != nil {
		t.count("transport.failed_runs", 1)
		return res, err
	}
	t.count("congest.rounds", float64(res.Rounds))
	t.count("congest.msgs", float64(res.Messages))
	return res, nil
}

// loopbackTCP is the TCP backend with its shards served by goroutines of
// this process, the way cmd/benchsuite runs it: the full wire protocol
// without a tcpnode binary.
func loopbackTCP() transport.TCP {
	return transport.TCP{
		Shards:  tcpShards,
		Timeout: tcpTimeout,
		Spawn: func(shard int, addr string) (transport.ShardHandle, error) {
			done := make(chan error, 1)
			go func() {
				conn, err := transport.DialShard(addr, tcpTimeout)
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

// ---------------------------------------------------------------------
// engine-proc

type engineProc struct {
	src   *rngutil.Source
	walks []reference
	ghs   []reference
}

func setupEngineProc(seed uint64, t *tracer) (runner, error) {
	w := &engineProc{src: rngutil.NewSource(seed)}
	var err error
	if w.walks, err = newReferences(walkSpecs, func(j uint64) transport.Spec {
		return walksSpec(w.src, j, procWalkNodes, procWalkK)
	}, t); err != nil {
		return nil, err
	}
	if w.ghs, err = newReferences(ghsSpecs, func(j uint64) transport.Spec {
		return ghsSpec(w.src, j, procGHSNodes)
	}, t); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *engineProc) op(i int, t *tracer) (int64, error) {
	walks, err := w.walks[i%len(w.walks)].run(transport.Proc{Workers: engineWorkers}, transport.Options{}, "transport.proc_walks", t)
	if err != nil {
		return 0, err
	}
	ghs, err := w.ghs[i%len(w.ghs)].run(transport.Proc{Workers: 1}, transport.Options{}, "transport.proc_ghs", t)
	if err != nil {
		return 0, err
	}
	return int64(walks.Rounds + ghs.Rounds), nil
}

// layers probes the engines below the transport seam: network
// construction, then the walks run on one and on two workers, then the
// round-bound GHS run, each on a freshly built instance (networks are
// single-use).
func (w *engineProc) layers(t *tracer, m layerMetrics) error {
	describeGraph(w.walks[0].g, t, m)

	instance := func(spec transport.Spec) (*transport.Instance, error) {
		wl, err := transport.Lookup(spec.Workload)
		if err != nil {
			return nil, err
		}
		return wl.Build(spec)
	}
	runWalks := func(workers int, span string) (*congest.Network, error) {
		inst, err := instance(w.walks[0].spec)
		if err != nil {
			return nil, err
		}
		var net *congest.Network
		t.call("congest.new_network", func() { net = congest.NewNetwork(inst.Graph, inst.Programs, inst.Source) })
		t.call(span, func() { _, err = net.SetWorkers(workers).RunUntilQuiet(inst.MaxRounds) })
		return net, err
	}
	// The ops run on benchProcs; what a second worker gains is measured
	// here, on a P for each worker.
	procs := runtime.GOMAXPROCS(engineWorkers)
	_, err := runWalks(1, "congest.walks_run_w1")
	if err != nil {
		runtime.GOMAXPROCS(procs)
		return fmt.Errorf("walks probe, 1 worker: %w", err)
	}
	net, err := runWalks(engineWorkers, "congest.walks_run_w2")
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return fmt.Errorf("walks probe, %d workers: %w", engineWorkers, err)
	}
	w1, w2 := t.sumMS("congest.walks_run_w1"), t.sumMS("congest.walks_run_w2")
	m.set("congest.new_network_ms", t.p50ms("congest.new_network"))
	m.set("congest.walks_run_ms_w1", w1)
	m.set("congest.walks_run_ms_w2", w2)
	m.set("congest.parallel_speedup", ratio(w1, w2))
	m.set("congest.walks_ns_per_msg", ratio(w2*1e6, float64(net.Messages())))

	inst, err := instance(w.ghs[0].spec)
	if err != nil {
		return err
	}
	ghsNet := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source)
	rounds := 0
	t.call("congest.ghs_run", func() { rounds, err = ghsNet.Run(inst.MaxRounds) })
	if err != nil {
		return fmt.Errorf("ghs probe: %w", err)
	}
	m.set("congest.ghs_run_ms", t.sumMS("congest.ghs_run"))
	m.set("congest.ghs_us_per_round", ratio(t.sumMS("congest.ghs_run")*1e3, float64(rounds)))

	const steadyRounds = 32
	g := w.walks[0].g
	t.call("congest.steady_allocs", func() {
		m.set("congest.steady_allocs_per_round", congest.MeasureSteadyAllocs(func() *congest.Network {
			return congest.NewUniformNetwork(g, func(int) congest.Program {
				return congest.NewTicker(1 << 30)
			}, w.src.Child("ticker", 0)).SetWorkers(engineWorkers)
		}, steadyRounds))
	})
	return nil
}

// ---------------------------------------------------------------------
// tcp-msgs and tcp-rounds

// tcpWorkload runs one pool of specs through the loopback TCP backend.
// The two TCP workloads differ in the spec (message-bound walks,
// round-bound GHS) and in the direct probes their traced run adds.
type tcpWorkload struct {
	src  *rngutil.Source
	refs []reference
	span string
	// reg receives the wire telemetry of traced ops only, so the
	// end-to-end pass runs with telemetry off.
	reg *metrics.Registry
}

type (
	tcpMsgs   struct{ tcpWorkload }
	tcpRounds struct{ tcpWorkload }
)

func setupTCPMsgs(seed uint64, t *tracer) (runner, error) {
	w := &tcpMsgs{tcpWorkload{src: rngutil.NewSource(seed), span: "transport.tcp_walks", reg: metrics.New()}}
	var err error
	w.refs, err = newReferences(walkSpecs, func(j uint64) transport.Spec {
		return walksSpec(w.src, j, tcpWalkNodes, tcpWalkK)
	}, t)
	return w, err
}

func setupTCPRounds(seed uint64, t *tracer) (runner, error) {
	w := &tcpRounds{tcpWorkload{src: rngutil.NewSource(seed), span: "transport.tcp_ghs", reg: metrics.New()}}
	var err error
	w.refs, err = newReferences(ghsSpecs, func(j uint64) transport.Spec {
		return ghsSpec(w.src, j, tcpGHSNodes)
	}, t)
	return w, err
}

func (w *tcpWorkload) op(i int, t *tracer) (int64, error) {
	var opts transport.Options
	if t != nil {
		opts.Metrics = w.reg
	}
	res, err := w.refs[i%len(w.refs)].run(loopbackTCP(), opts, w.span, t)
	return int64(res.Rounds), err
}

// wire reports the traced ops' cost per message and per round, the wire
// telemetry, and returns the ratio of the median TCP op to the median
// sequential in-process run of the same specs (base: the set-up reference
// runs, Proc{Workers: 1}).
func (w *tcpWorkload) wire(t *tracer, m layerMetrics) (overProc float64) {
	describeGraph(w.refs[0].g, t, m)
	ms := t.p50ms(w.span)
	m.set("transport.tcp_ns_per_msg", ratio(ms*1e6, t.mean("congest.msgs")))
	m.set("transport.tcp_us_per_round", ratio(ms*1e3, t.mean("congest.rounds")))

	snap := w.reg.Snapshot()
	bytes, _ := snap.Counter("tcpnet_bytes_total")
	frames, _ := snap.Counter("tcpnet_frames_total")
	m.set("transport.wire_bytes_per_msg", ratio(float64(bytes), t.sums["congest.msgs"]))
	m.set("transport.wire_bytes_per_round", ratio(float64(bytes), t.sums["congest.rounds"]))
	m.set("transport.frames_per_round", ratio(float64(frames), t.sums["congest.rounds"]))
	m.set("transport.flush_p50_us", float64(snap.Histogram("tcpnet_flush_ns").Quantile(0.5))/1e3)
	m.set("transport.round_skew_p99_us", float64(snap.Histogram("tcpnet_round_skew_ns").Quantile(0.99))/1e3)
	return ratio(ms, t.p50ms("transport.reference"))
}

// layers adds the per-message probes: the walk payload codec in
// isolation, and the same walks with a fault plan riding the wire.
func (w *tcpMsgs) layers(t *tracer, m layerMetrics) error {
	m.set("transport.tcp_over_proc_walks", w.wire(t, m))

	wl, err := transport.Lookup("walks")
	if err != nil {
		return err
	}
	// A walk token is three uvarints: steps left, origin, sequence.
	token := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, walkSteps), tcpWalkNodes-1), 1)
	const codecReps = 100_000
	buf := make([]byte, 0, len(token))
	t.call("transport.payload_codec", func() {
		for i := 0; i < codecReps && err == nil; i++ {
			var msg congest.Message
			if msg, err = wl.Decode(token); err == nil {
				buf, err = wl.Encode(buf[:0], msg)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("walk payload codec: %w", err)
	}
	m.set("transport.payload_codec_ns", t.sumMS("transport.payload_codec")*1e6/codecReps)

	faulty := w.refs[0].spec
	faulty.Workload = "walks-faults"
	faulty.FaultSpec = faultSpec
	faulty.FaultSeed = w.src.Derive("faults", 0)
	const faultRuns = 3
	var res transport.Result
	for i := 0; i < faultRuns; i++ {
		t.call("faults.tcp_walks_faults", func() { res, err = loopbackTCP().Run(faulty, transport.Options{}) })
		if err != nil {
			return fmt.Errorf("walks-faults over tcp: %w", err)
		}
	}
	m.set("faults.tcp_walks_faults_ms_p50", t.p50ms("faults.tcp_walks_faults"))
	m.set("faults.tcp_overhead_ratio", ratio(t.p50ms("faults.tcp_walks_faults"), t.p50ms(w.span)))
	m.set("faults.dropped", float64(res.Faults.Dropped))
	return nil
}

// layers adds the per-round probe: the fixed cost of a TCP run (accept,
// spec, init, quit) on a one-step ticker over eight nodes.
func (w *tcpRounds) layers(t *tracer, m layerMetrics) error {
	m.set("transport.tcp_over_proc_ghs", w.wire(t, m))

	fixed := transport.Spec{
		Workload: "ticker", Graph: "ring", N: 8, Steps: 1,
		Seed: w.src.Derive("fixed-graph", 0), SrcSeed: w.src.Derive("fixed-src", 0),
	}
	const fixedRuns = 8
	for i := 0; i < fixedRuns; i++ {
		var err error
		t.call("transport.tcp_fixed", func() { _, err = loopbackTCP().Run(fixed, transport.Options{}) })
		if err != nil {
			return fmt.Errorf("fixed-cost ticker over tcp: %w", err)
		}
	}
	m.set("transport.tcp_fixed_ms", t.p50ms("transport.tcp_fixed"))
	return nil
}
