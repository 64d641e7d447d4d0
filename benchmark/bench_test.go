package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testConfig is one pass over two ops with a single set-up, so the suite
// stays short; everything else is the real benchmark.
func testConfig(t *testing.T, seed uint64) config {
	return config{
		seed: seed, ops: 2, passes: 1, setupReps: 1, log: io.Discard,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

func skipTCPInShort(t *testing.T, workload string) {
	if testing.Short() && (workload == wTCPMsgs || workload == wTCPRounds) {
		t.Skip("TCP workloads skipped under -short")
	}
}

// benchmarkJSON mirrors BENCHMARK.json with exactly its keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the tables in
// defs.go and the limits of the benchmark contract in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"go", "run", "-C", "benchmark", "almostmix/benchmark"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}

	used := make(map[string]bool)
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	checkMetric := func(name, unit, better string) {
		t.Helper()
		checkName(name)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %v", name, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloadDefs, want 2..8 and equal", n, len(workloadDefs))
	}
	workloads := make(map[string]bool)
	for i, w := range spec.Workloads {
		checkName(w.Name)
		workloads[w.Name] = true
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloadDefs has %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in endToEnd, want 1..16 and equal", n, len(endToEnd))
	}
	metrics := make(map[string]bool)
	for i, m := range spec.EndToEnd {
		checkMetric(m.Name, m.Unit, m.Better)
		metrics[m.Name] = true
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, endToEnd has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower; got %+v", s)
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in perLayer, want 1..128 and equal", n, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkMetric(m.Name, m.Unit, m.Better)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, perLayer has %s %s %s", i, m, d.name, d.unit, d.better)
		}
		if len(d.moves) == 0 {
			t.Errorf("%s: names no end-to-end metric and workload it should move", d.name)
		}
		for _, mv := range d.moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !metrics[metric] || !workloads[workload] {
				t.Errorf("%s: moves %q, which is not <end-to-end metric>@<workload>", d.name, mv)
			}
		}
	}
}

// TestWorkloads runs every workload at two ops: the untraced pass twice
// on one seed and once on another, and the traced pass. It checks the
// result against the metric tables, that the simulated rounds repeat
// exactly for a seed and move with it, and that the trace is complete.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		w := w
		t.Run(w.name, func(t *testing.T) {
			skipTCPInShort(t, w.name)
			t.Parallel()
			run := func(seed uint64) result {
				t.Helper()
				res, err := measure(w, testConfig(t, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d, want true 2 0", seed, res.Correct, res.Attempted, res.Failed)
				}
				for _, d := range endToEnd {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
						t.Errorf("seed %d: %s = %+v (present %v), want a positive value in %s", seed, d.name, m, ok, d.unit)
					}
				}
				if len(res.Metrics) != len(endToEnd) {
					t.Errorf("seed %d: %d metrics, want the %d end-to-end ones", seed, len(res.Metrics), len(endToEnd))
				}
				return res
			}
			const rounds = "sim_rounds_per_op"
			first, again, other := run(1), run(1), run(2)
			if first.Metrics[rounds] != again.Metrics[rounds] {
				t.Errorf("seed 1 twice: %v then %v simulated rounds per op, want equal", first.Metrics[rounds], again.Metrics[rounds])
			}
			// GHS on 48 nodes takes 601 rounds on nineteen graphs in twenty,
			// whatever the seed; TestSeedReachesTCPRounds covers tcp-rounds.
			if first.Metrics[rounds] == other.Metrics[rounds] && w.name != wTCPRounds {
				t.Errorf("seeds 1 and 2 both charge %v simulated rounds per op: -seed does not reach the inputs", first.Metrics[rounds])
			}

			cfg := testConfig(t, 1)
			traced, err := measureTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Attempted != 4 || traced.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d, want true 4 0", traced.Correct, traced.Attempted, traced.Failed)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := traced.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("traced: %s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			if c := traced.Metrics["harness.span_coverage"].Value; c < 0.95 || c > 1 {
				t.Errorf("span coverage %.3f, want 0.95..1", c)
			}

			buf, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(buf, &spans); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			names := map[string]bool{"": true}
			for _, s := range spans {
				names[s.Name] = true
			}
			ops := 0
			for _, s := range spans {
				if s.Workload != w.name || s.EndNS < s.StartNS || !names[s.Parent] {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Name == phaseOp {
					ops++
				}
			}
			if ops != 2 {
				t.Errorf("%d op spans, want 2", ops)
			}
		})
	}
}

// TestSeedReachesTCPRounds checks on the reference runs' message counts
// that tcp-rounds draws other graphs and weights for another seed.
func TestSeedReachesTCPRounds(t *testing.T) {
	messages := func(seed uint64) (total int) {
		r, err := setupTCPRounds(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range r.(*tcpRounds).refs {
			total += ref.want.Messages
		}
		return total
	}
	if a, b := messages(1), messages(2); a == b {
		t.Errorf("seeds 1 and 2 both send %d messages over the spec pool", a)
	}
}

// TestWrongExpectationIsACountedFailure corrupts one oracle expectation
// after set-up: the op that meets it must be counted as failed, neither
// panic nor pass, and the ops around it must still pass.
func TestWrongExpectationIsACountedFailure(t *testing.T) {
	wrong := workloadDef{name: "wrong-expectation", setup: func(seed uint64, tr *tracer) (runner, error) {
		r, err := setupEngineProc(seed, tr)
		if err != nil {
			return nil, err
		}
		// Ops 1, 9, 17, … run GHS spec 1; the warm-up op runs spec 0.
		w := r.(*engineProc)
		w.ghs[1].mst = w.ghs[1].mst[1:]
		return w, nil
	}}
	cfg := testConfig(t, 1)
	cfg.ops = 3
	res, err := measure(wrong, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 3 1", res.Correct, res.Attempted, res.Failed)
	}
}

// slowStart is a runner whose first calls are slow, as on a host that is
// busy when the run begins, and whose simulated rounds may drift between
// repetitions of an op, as a non-deterministic layer's would.
type slowStart struct {
	calls, slowCalls int
	drift            bool
}

func (r *slowStart) op(i int, _ *tracer) (int64, error) {
	r.calls++
	if r.calls <= r.slowCalls {
		time.Sleep(50 * time.Millisecond)
	}
	if r.drift {
		return int64(r.calls), nil
	}
	return int64(i + 1), nil
}

func (r *slowStart) layers(*tracer, layerMetrics) error { return nil }

// TestFastestRepetitionIsTheOpsTime checks the noise rejection of the
// untraced pass: a slow first pass leaves the timing metrics alone, every
// repetition is attempted, and an op whose simulated rounds change from
// one repetition to the next is a counted failure.
func TestFastestRepetitionIsTheOpsTime(t *testing.T) {
	run := func(r *slowStart) result {
		t.Helper()
		w := workloadDef{name: "slow-start", setup: func(uint64, *tracer) (runner, error) { return r, nil }}
		cfg := testConfig(t, 1)
		cfg.passes = 3
		res, err := measure(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The warm-up op and the whole first pass are slow.
	res := run(&slowStart{slowCalls: 3})
	if !res.Correct || res.Attempted != 6 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want true 6 0", res.Correct, res.Attempted, res.Failed)
	}
	if p80 := res.Metrics["op_p80_ms"].Value; p80 >= 25 {
		t.Errorf("op_p80_ms = %.1f: the slow first pass shows", p80)
	}
	if rate := res.Metrics["ops_per_s"].Value; rate <= 40 {
		t.Errorf("ops_per_s = %.1f: the slow first pass shows", rate)
	}
	if rounds := res.Metrics["sim_rounds_per_op"].Value; rounds != 1.5 {
		t.Errorf("sim_rounds_per_op = %v, want 1.5 (ops charging 1 and 2)", rounds)
	}

	res = run(&slowStart{drift: true})
	if res.Correct || res.Attempted != 6 || res.Failed != 4 {
		t.Errorf("drifting rounds: correct=%v attempted=%d failed=%d, want false 6 4", res.Correct, res.Attempted, res.Failed)
	}
}

func TestSameEdges(t *testing.T) {
	for _, tc := range []struct {
		got, want []int
		diff      int
	}{
		{[]int{3, 1, 2}, []int{1, 2, 3}, 0},
		{[]int{1, 2}, []int{1, 2, 3}, 1},
		{[]int{1, 2, 4}, []int{1, 2, 3}, 2},
		{nil, []int{5}, 1},
	} {
		if d := sameEdges(tc.got, tc.want); d != tc.diff {
			t.Errorf("sameEdges(%v, %v) = %d, want %d", tc.got, tc.want, d, tc.diff)
		}
	}
}

// TestCompare checks the verdicts and exit codes of -compare.
func TestCompare(t *testing.T) {
	base := func() document {
		doc := document{Schema: schema, Host: host{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu"}, Seed: 1}
		for _, w := range workloadDefs {
			wd := workloadDoc{Name: w.name, Correct: true, Ops: 60, Passes: 5, Attempted: 300, EndToEnd: map[string]metricValue{}}
			for _, d := range endToEnd {
				wd.EndToEnd[d.name] = metricValue{Value: 100, Unit: d.unit}
			}
			doc.Workloads = append(doc.Workloads, wd)
		}
		return doc
	}
	set := func(doc *document, metric string, v float64) {
		doc.Workloads[2].EndToEnd[metric] = metricValue{Value: v}
	}
	bound := func(metric string) float64 {
		for _, d := range endToEnd {
			if d.name == metric {
				return d.bound
			}
		}
		t.Fatalf("no end-to-end metric %s", metric)
		return 0
	}
	// Both sides start at 100, so these are just inside and just past
	// the bound of a lower-is-better and of a higher-is-better metric.
	slower := func(metric string, past float64) float64 { return 100*(1+bound(metric)) + past }
	fewer := func(metric string, past float64) float64 { return 100/(1+bound(metric)) - past }
	for _, tc := range []struct {
		name   string
		change func(b *document)
		want   int
	}{
		{"identical", func(b *document) {}, 0},
		{"latency within bound", func(b *document) { set(b, "op_p50_ms", slower("op_p50_ms", -1)) }, 0},
		{"throughput within bound", func(b *document) { set(b, "ops_per_s", fewer("ops_per_s", -1)) }, 0},
		{"better", func(b *document) { set(b, "op_p50_ms", 50); set(b, "ops_per_s", 200) }, 0},
		{"latency past bound", func(b *document) { set(b, "op_p50_ms", slower("op_p50_ms", 1)) }, exitFailed},
		{"throughput past bound", func(b *document) { set(b, "ops_per_s", fewer("ops_per_s", 1)) }, exitFailed},
		{"allocation past bound", func(b *document) { set(b, "alloc_mb_per_op", slower("alloc_mb_per_op", 1)) }, exitFailed},
		{"simulated rounds moved", func(b *document) { set(b, "sim_rounds_per_op", 100.5) }, exitFailed},
		{"more failed ops", func(b *document) { b.Workloads[0].Failed = 1 }, exitFailed},
		{"other seed", func(b *document) { b.Seed = 2 }, exitRefused},
		{"other op count", func(b *document) { b.Workloads[1].Ops = 30 }, exitRefused},
		{"other pass count", func(b *document) { b.Workloads[1].Passes = 3 }, exitRefused},
		{"other host shape", func(b *document) { b.Host.NProc = 4 }, exitRefused},
		{"other cpu", func(b *document) { b.Host.CPUModel = "other" }, exitRefused},
		{"other GOMAXPROCS", func(b *document) { b.Host.GOMAXPROCS = 1 }, exitRefused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := base(), base()
			tc.change(&b)
			dir := t.TempDir()
			pathA, pathB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
			if err := writeJSON(pathA, a, true); err != nil {
				t.Fatal(err)
			}
			if err := writeJSON(pathB, b, true); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if got := compareFiles(pathA, pathB, &out); got != tc.want {
				t.Errorf("exit code %d, want %d; output:\n%s", got, tc.want, out.String())
			}
		})
	}
}

// TestSeedReachesEveryGenerator is the held-out-seed guarantee, checked
// on the source: no generator in the benchmark is seeded with a literal,
// so a claim can be re-checked on a seed nobody tuned against. (That the
// seed changes the inputs is checked by running, in TestWorkloads.)
func TestSeedReachesEveryGenerator(t *testing.T) {
	seeders := map[string]bool{"NewSource": true, "NewRand": true, "NewPCG": true, "NewChaCha8": true, "New": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !seeders[sel.Sel.Name] {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || (pkg.Name != "rngutil" && pkg.Name != "rand") {
					return true
				}
				for _, arg := range n.Args {
					if _, literal := arg.(*ast.BasicLit); literal {
						t.Errorf("%s: %s.%s is seeded with a literal", fset.Position(n.Pos()), pkg.Name, sel.Sel.Name)
					}
				}
			case *ast.KeyValueExpr:
				key, ok := n.Key.(*ast.Ident)
				if _, literal := n.Value.(*ast.BasicLit); ok && literal && strings.Contains(strings.ToLower(key.Name), "seed") {
					t.Errorf("%s: field %s is set to a literal", fset.Position(n.Pos()), key.Name)
				}
			}
			return true
		})
	}
}
