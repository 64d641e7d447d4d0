// Command benchmark is the repository's end-to-end benchmark: six
// workloads over hierarchy construction, serving on a built hierarchy,
// the in-process engines and the TCP wire, each driven from outside
// through the layers' public functions by one closed-loop client (one op
// in flight, the next issued when the previous returns), every op
// checked against an oracle. See README.md in this directory.
//
//	go run -C benchmark . --workload NAME --seed N --seconds S --trace 0|1
//	go run -C benchmark . [-seed N] [-passes N] [-trace 1] [-out FILE]
//	go run -C benchmark . -compare A.json B.json
//
// With --workload the program measures that workload in this process and
// prints every metric by name and unit, then one JSON result line (the
// contract of BENCHMARK.json). Without it the program re-executes itself
// once per workload, so peak RSS and GC state never bleed between
// workloads, and writes one JSON document for -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// runner is a workload after set-up: its inputs and fixtures are built.
type runner interface {
	// op runs operation i on sub-seed i, checks its output against the
	// workload's oracle, and returns the simulated CONGEST base rounds
	// the op was charged. Any error, oracle mismatch included, makes the
	// op a counted failure.
	op(i int, t *tracer) (simRounds int64, err error)
	// layers runs the workload's direct layer probes (traced run only)
	// and records the per-layer figures t.fill cannot derive by name.
	layers(t *tracer, m layerMetrics) error
}

// workloadDef is one benchmark workload: what it is for, and how to
// build its inputs and fixtures from a seed.
type workloadDef struct {
	name string
	why  string
	// ops is the number of distinct timed ops, sub-seeds 0 … ops-1: two to
	// three seconds of work on the host the benchmark was sized on, so a
	// run of sixteen seconds times each op about six times.
	ops   int
	setup func(seed uint64, t *tracer) (runner, error)
}

var workloadDefs = []workloadDef{
	{name: wBuildExpander, ops: 24, setup: setupBuildExpander,
		why: "embed.Build on random regular expanders: randomwalk, embed and pathsched do all the work; route, mst, congest and transport do none"},
	{name: wServeExpander, ops: 600, setup: setupServeExpander,
		why: "permutation routing, degree-demand routing and MST on hierarchies built in set-up: route, mst and pathsched work; embed shows only in setup_s"},
	{name: wBuildClusters, ops: 64, setup: setupBuildClusters,
		why: "decompose, build per-cluster hierarchies, route and MST across clusters on a barbell: the embedded code on many tiny clusters with estimated mixing times"},
	{name: wEngineProc, ops: 32, setup: setupEngineProc,
		why: "in-process congest engines through transport.Proc: message-bound walks on two workers plus round-bound GHS on one; the embedded tier never runs"},
	{name: wTCPMsgs, ops: 24, setup: setupTCPMsgs,
		why: "walks over the loopback TCP backend, 327 680 messages in about 47 rounds: wire cost per message (frame codec, bytes, flushes) dominates"},
	{name: wTCPRounds, ops: 96, setup: setupTCPRounds,
		why: "GHS over the loopback TCP backend, about 600 barriers for about 2 000 messages: wire cost per round (syscalls, barrier latency) dominates"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	// benchProcs is the GOMAXPROCS every workload runs at. The benchmark's
	// host is a virtual machine with two shared vCPUs, where waking an
	// idle vCPU costs more than the work handed to it: at the host's
	// default the garbage collector's background workers, the engine's
	// second worker and the TCP shards' goroutines land on the other vCPU,
	// ops get 10 to 25 % slower, and GHS over TCP takes 54 ms or 25 ms
	// an op depending on whether anything else keeps the machine awake.
	// On one P the timings are the code's own CPU and system-call cost.
	benchProcs = 1
	// A run sets up from scratch at least defaultSetupReps times and
	// until setupBudget has been spent, at most maxSetupReps times, so
	// that a set-up of tens of milliseconds is repeated often enough for
	// a steady median. setup_s is the median, and the last repetition's
	// fixtures serve the ops.
	defaultSetupReps = 3
	maxSetupReps     = 25
	setupBudget      = 1500 * time.Millisecond
	// warmupOp is the sub-seed of the first warm-up op (one per set-up
	// repetition), far from the timed ops' sub-seeds 0, 1, 2, ….
	warmupOp = 1 << 20
	// minPasses is how often every op is timed at the least, however
	// slow the host.
	minPasses = 3
	// tracedOps is the op count of the traced pass: a fixed count, so the
	// simulated counts it reports repeat exactly for a seed.
	tracedOps = 16
	// documentPasses is the pass count of a document run: a count, never
	// a window, so both sides of a comparison do identical work.
	documentPasses = 5
	// maxReportedErrors bounds the failed-op lines on standard error.
	maxReportedErrors = 5

	exitFailed  = 1 // an op failed verification, a regression bound was passed, or the run broke
	exitUsage   = 2
	exitRefused = 3 // -compare: the two documents are not comparable
)

// config is one invocation's settings.
type config struct {
	seed      uint64
	seconds   float64 // measuring window when passes is 0
	ops       int     // distinct ops of a pass; 0: the workload's own count
	passes    int     // fixed number of passes when > 0, else the window
	setupReps int     // set-up repetitions: the minimum with a budget, the count without
	budget    time.Duration
	trace     bool
	traceOut  string
	log       io.Writer // the metric lines; the result line goes to stdout
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts the ops of a run and keeps the first failures for the log.
type tally struct {
	attempted, failed int
}

func (c *tally) note(i int, err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.failed <= maxReportedErrors {
		fmt.Fprintf(os.Stderr, "benchmark: op %d failed: %v\n", i, err)
	}
}

// setUp builds the workload's inputs and fixtures several times, each
// followed by one warm-up op, and returns the last runner with the
// seconds each repetition took.
func setUp(w workloadDef, cfg config, t *tracer) (runner, []float64, error) {
	var r runner
	var secs []float64
	begin := time.Now()
	for rep := 0; rep < cfg.setupReps || (rep < maxSetupReps && time.Since(begin) < cfg.budget); rep++ {
		var err error
		start := time.Now()
		t.root(-1, phaseSetup, func() {
			if r, err = w.setup(cfg.seed, t); err == nil {
				_, err = r.op(warmupOp+rep, nil)
			}
		})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	// Set-up garbage is not the timed window's to collect.
	runtime.GC()
	return r, secs, nil
}

// measure is the untraced pass: the end-to-end metrics. The workload's
// ops (sub-seeds 0 … ops-1) are run in passes, one after the other and
// then again, until the window closes; an op's time is that of its fastest
// repetition. Repetitions of one op lie a whole pass apart, so a burst of
// host noise shorter than the run slows some repetitions of an op and not
// all of them, and the three timing metrics read what a quiet host would
// give. What the minimum hides with the noise, a garbage collection that
// lands in one repetition and not the next, alloc_mb_per_op keeps.
func measure(w workloadDef, cfg config) (result, error) {
	r, setup, err := setUp(w, cfg, nil)
	if err != nil {
		return result{}, err
	}
	ops := w.ops
	if cfg.ops > 0 {
		ops = cfg.ops
	}
	var (
		count  tally
		bestMS = make([]float64, ops)
		rounds = make([]int64, ops)
		window = time.Duration(cfg.seconds * float64(time.Second))
	)
	_, bytes0 := heapAllocs()
	start := time.Now()
	more := func(pass int) bool {
		if cfg.passes > 0 {
			return pass < cfg.passes
		}
		return pass < minPasses || time.Since(start) < window
	}
	for pass := 0; more(pass); pass++ {
		for i := 0; i < ops && more(pass); i++ {
			opStart := time.Now()
			got, err := r.op(i, nil)
			ms := float64(time.Since(opStart).Nanoseconds()) / 1e6
			switch {
			case pass == 0:
				bestMS[i], rounds[i] = ms, got
			case err == nil && got != rounds[i]:
				err = fmt.Errorf("charged %d simulated rounds, %d on the first pass", got, rounds[i])
			default:
				bestMS[i] = min(bestMS[i], ms)
			}
			count.note(i, err)
		}
	}
	elapsed := time.Since(start).Seconds()
	_, bytes1 := heapAllocs()

	var totalMS float64
	var totalRounds int64
	for i := range bestMS {
		totalMS += bestMS[i]
		totalRounds += rounds[i]
	}
	values := map[string]float64{
		"setup_s":           quantile(setup, 0.5),
		"ops_per_s":         ratio(float64(ops)*1e3, totalMS),
		"op_p50_ms":         quantile(bestMS, 0.5),
		"op_p80_ms":         quantile(bestMS, 0.8),
		"sim_rounds_per_op": float64(totalRounds) / float64(ops),
		"alloc_mb_per_op":   float64(bytes1-bytes0) / (1 << 20) / float64(count.attempted),
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d ops, %d timed repetitions in %.3f s, %d failed\n",
		w.name, cfg.seed, ops, count.attempted, elapsed, count.failed)
	return report(cfg.log, count, endToEnd, values), nil
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureTraced is the traced pass: the per-layer metrics. Each op runs
// twice on the same sub-seed, untraced then traced, so the tracing
// overhead is a paired difference.
func measureTraced(w workloadDef, cfg config) (result, error) {
	t := newTracer(w.name)
	r, _, err := setUp(w, cfg, t)
	if err != nil {
		return result{}, err
	}
	ops := tracedOps
	if cfg.ops > 0 {
		ops = cfg.ops
	}
	var (
		count   tally
		plainMS []float64
		before  runtime.MemStats
		after   runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	objects0, bytes0 := heapAllocs()
	for i := 0; i < ops; i++ {
		start := time.Now()
		_, err := r.op(i, nil)
		plainMS = append(plainMS, float64(time.Since(start).Nanoseconds())/1e6)
		count.note(i, err)
		t.root(i, phaseOp, func() { _, err = r.op(i, t) })
		count.note(i, err)
	}
	objects1, bytes1 := heapAllocs()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)

	m := make(layerMetrics)
	t.fill(m)
	t.root(-1, phaseProbe, func() { err = r.layers(t, m) })
	if err != nil {
		return result{}, fmt.Errorf("layer probes of %s: %w", w.name, err)
	}
	window := 0.0
	for _, ms := range plainMS {
		window += ms / 1e3
	}
	both := float64(2 * ops) // untraced and traced ops do the same work
	m.set("harness.timed_ops", float64(ops))
	m.set("harness.timed_window_s", window)
	m.set("harness.cpu_ms_per_op", cpu.Seconds()*1e3/both)
	m.set("harness.allocs_per_op", float64(objects1-objects0)/both)
	m.set("harness.alloc_mb_per_op", float64(bytes1-bytes0)/(1<<20)/both)
	m.set("harness.gc_cycles", float64(after.NumGC-before.NumGC))
	m.set("harness.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("harness.peak_rss_mb", peakRSSMB())
	m.set("harness.span_coverage", t.coverage())
	m.set("harness.trace_overhead_pct", (ratio(t.p50ms(phaseOp), quantile(plainMS, 0.5))-1)*100)

	if err := writeJSON(cfg.traceOut, t.spans, false); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d traced ops, %d spans written to %s, %d failed\n",
		w.name, cfg.seed, ops, len(t.spans), cfg.traceOut, count.failed)
	return report(cfg.log, count, perLayer, m), nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the per-op CPU figure reads 0; nothing else depends on it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report prints every metric of defs by name with its unit and packs
// them into the result.
func report(log io.Writer, count tally, defs []metricDef, values map[string]float64) result {
	res := result{
		Correct:   count.failed == 0,
		Attempted: count.attempted,
		Failed:    count.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(log, "%-36s %18.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// runWorkload measures one workload in this process and prints the
// result line last.
func runWorkload(name string, cfg config) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return exitUsage
	}
	pass := measure
	if cfg.trace {
		pass = measureTraced
	}
	res, err := pass(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailed
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitFailed
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return exitFailed
	}
	return 0
}

func main() {
	cfg := config{setupReps: defaultSetupReps, budget: setupBudget, log: os.Stdout}
	workload := flag.String("workload", "", "measure this one workload in-process (default: every workload, one child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "the only source of randomness: every graph, demand, weight and stream derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measuring window of the untraced pass when -passes is 0")
	flag.IntVar(&cfg.ops, "ops", 0, "distinct ops of a pass (default: each workload's own count; the traced pass runs 16)")
	flag.IntVar(&cfg.passes, "passes", 0, "fixed number of passes over the ops instead of a window (default: the window with -workload, 5 without)")
	trace := flag.Int("trace", 0, "1: traced pass, per-layer metrics and a span file; 0: untraced pass, end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "traceout", "out/trace.json", "span file of the traced pass")
	out := flag.String("out", "out/bench.json", "document written when every workload runs")
	compare := flag.Bool("compare", false, "compare two documents: -compare A.json B.json")
	flag.Parse()
	cfg.trace = *trace != 0
	runtime.GOMAXPROCS(benchProcs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two documents: -compare A.json B.json")
			os.Exit(exitUsage)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	case flag.NArg() != 0 || cfg.ops < 0 || cfg.passes < 0 || cfg.seconds <= 0 || *trace < 0 || *trace > 1:
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments (need -ops >= 0, -passes >= 0, -seconds > 0, -trace 0|1, no positional arguments)")
		os.Exit(exitUsage)
	case *workload != "":
		os.Exit(runWorkload(*workload, cfg))
	default:
		failed, err := runAll(cfg, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if err != nil || failed > 0 {
			os.Exit(exitFailed)
		}
	}
}
