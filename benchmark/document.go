package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const schema = "almostmix-benchmark/v1"

// host is where a document was measured. Documents from different host
// shapes are not comparable and -compare refuses them.
type host struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// workloadDoc is one workload's results in a document.
type workloadDoc struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Correct bool   `json:"correct"`
	// Ops and Passes say what the untraced pass timed: every one of Ops
	// distinct ops, Passes times. Counts, never a window, so both sides
	// of a comparison do identical work and the simulated rounds compare
	// exactly. Attempted adds the traced pass.
	Ops       int                    `json:"ops"`
	Passes    int                    `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// document is what a run over every workload writes and -compare reads.
type document struct {
	Schema string `json:"schema"`
	Host   host   `json:"host"`
	Seed   uint64 `json:"seed"`
	// Transport says what the TCP workloads measured.
	Transport string `json:"transport"`
	// Claim is null: the benchmark's own document claims no gain.
	Claim     *string       `json:"claim"`
	Workloads []workloadDoc `json:"workloads"`
}

func thisHost() host {
	h := host{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// runChild re-executes this program for one workload pass, copies its
// output through, and parses the result line it prints last.
func runChild(exe, workload string, seed uint64, ops, passes int, traceOut string) (result, error) {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-ops", fmt.Sprint(ops), "-passes", fmt.Sprint(passes), "-trace", "0"}
	if traceOut != "" {
		args[len(args)-1] = "1"
		args = append(args, "-traceout", traceOut)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	// A child that exits non-zero after printing its result line counted
	// failed ops; the line says how many, so it is still parsed.
	runErr := cmd.Run()
	last := ""
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runAll measures every workload, each in a child process of its own,
// and writes the document; it returns the number of failed ops. With
// cfg.trace each workload also makes the traced pass, and the children's
// spans are gathered into one file.
func runAll(cfg config, out string) (failed int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating own executable: %w", err)
	}
	doc := document{
		Schema:    schema,
		Host:      thisHost(),
		Seed:      cfg.seed,
		Transport: fmt.Sprintf("tcp workloads: %d shards as goroutines of one process over loopback, not a real link", tcpShards),
	}
	passes := cfg.passes
	if passes == 0 {
		passes = documentPasses
	}
	var spans []json.RawMessage
	for _, w := range workloadDefs {
		ops := cfg.ops
		if ops == 0 {
			ops = w.ops
		}
		res, err := runChild(exe, w.name, cfg.seed, ops, passes, "")
		if err != nil {
			return failed, err
		}
		wd := workloadDoc{
			Name: w.name, Why: w.why,
			Correct: res.Correct, Ops: ops, Passes: passes, Attempted: res.Attempted, Failed: res.Failed,
			EndToEnd: res.Metrics,
		}
		if cfg.trace {
			part := cfg.traceOut + "." + w.name
			// -ops 0 leaves the traced pass at its own fixed op count.
			traced, err := runChild(exe, w.name, cfg.seed, cfg.ops, passes, part)
			if err != nil {
				return failed, err
			}
			wd.PerLayer = traced.Metrics
			wd.Correct = wd.Correct && traced.Correct
			wd.Attempted += traced.Attempted
			wd.Failed += traced.Failed
			if spans, err = appendSpans(spans, part); err != nil {
				return failed, err
			}
		}
		failed += wd.Failed
		doc.Workloads = append(doc.Workloads, wd)
	}
	if cfg.trace {
		if err := writeJSON(cfg.traceOut, spans, false); err != nil {
			return failed, err
		}
	}
	if err := writeJSON(out, doc, true); err != nil {
		return failed, err
	}
	fmt.Printf("wrote %s (%d workloads, seed %d, %d failed ops)\n", out, len(doc.Workloads), doc.Seed, failed)
	return failed, nil
}

// appendSpans moves one child's span file into the gathered list.
func appendSpans(spans []json.RawMessage, part string) ([]json.RawMessage, error) {
	buf, err := os.ReadFile(part)
	if err != nil {
		return nil, fmt.Errorf("gathering spans: %w", err)
	}
	var more []json.RawMessage
	if err := json.Unmarshal(buf, &more); err != nil {
		return nil, fmt.Errorf("gathering spans from %s: %w", part, err)
	}
	if err := os.Remove(part); err != nil {
		return nil, fmt.Errorf("gathering spans: %w", err)
	}
	return append(spans, more...), nil
}

func writeJSON(path string, v any, indent bool) error {
	var buf []byte
	var err error
	if indent {
		buf, err = json.MarshalIndent(v, "", "  ")
	} else {
		buf, err = json.Marshal(v)
	}
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// ---------------------------------------------------------------------
// -compare

func readDocument(path string) (document, error) {
	var doc document
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return doc, nil
}

// incomparable lists why two documents cannot be compared: a different
// host shape, seed or op count makes every ratio meaningless.
func incomparable(a, b document) []string {
	var why []string
	differ := func(what string, x, y any) {
		if x != y {
			why = append(why, fmt.Sprintf("%s differs: %v vs %v", what, x, y))
		}
	}
	differ("nproc", a.Host.NProc, b.Host.NProc)
	differ("GOMAXPROCS", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	differ("CPU model", a.Host.CPUModel, b.Host.CPUModel)
	differ("seed", a.Seed, b.Seed)
	differ("workload count", len(a.Workloads), len(b.Workloads))
	for i := 0; i < min(len(a.Workloads), len(b.Workloads)); i++ {
		differ("workload", a.Workloads[i].Name, b.Workloads[i].Name)
		differ("op count of "+a.Workloads[i].Name, a.Workloads[i].Ops, b.Workloads[i].Ops)
		differ("pass count of "+a.Workloads[i].Name, a.Workloads[i].Passes, b.Workloads[i].Passes)
	}
	return why
}

// compareFiles prints, per workload and end-to-end metric, both values
// and the ratio B ÷ A (base: A), and marks every metric of B that is
// worse than A by more than its bound. Simulated rounds must be equal to
// the bit and B may not fail more ops than A.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	if why := incomparable(a, b); len(why) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare %s with %s:\n", pathA, pathB)
		for _, reason := range why {
			fmt.Fprintln(os.Stderr, "  "+reason)
		}
		return exitRefused
	}
	breaches := 0
	breach := func(format string, args ...any) string {
		breaches++
		return "  BREACH: " + fmt.Sprintf(format, args...)
	}
	fmt.Fprintf(w, "A = %s (%s), B = %s (%s); ratio = B / A\n", pathA, a.Host.GitSHA, pathB, b.Host.GitSHA)
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		fmt.Fprintf(w, "%s\n", wa.Name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			note := ""
			worse := ratio(vb, va) - 1 // relative worsening of a lower-is-better metric
			if d.better == "higher" {
				worse = ratio(va, vb) - 1
			}
			switch {
			case d.name == "sim_rounds_per_op":
				if va != vb {
					note = breach("simulated rounds must be equal for one seed and op count")
				}
			case worse > d.bound:
				note = breach("worse by %.1f %%, bound %.0f %%", worse*100, d.bound*100)
			}
			fmt.Fprintf(w, "  %-20s %16.4f %16.4f %-6s ratio %.4f%s\n", d.name, va, vb, d.unit, ratio(vb, va), note)
		}
		note := ""
		if wb.Failed > wa.Failed {
			note = breach("more failed ops")
		}
		fmt.Fprintf(w, "  %-20s %16d %16d %-6s of %d and %d attempted%s\n", "failed_ops", wa.Failed, wb.Failed, "count", wa.Attempted, wb.Attempted, note)
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breaches\n", breaches)
		return exitFailed
	}
	fmt.Fprintln(w, "no breach")
	return 0
}
