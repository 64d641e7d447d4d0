// Command obsreport joins the TCP transport's observability artifacts
// into one per-round attribution report: the -obsout document (required
// — coordinator + shard flight recorders, wire tallies, peer-wait
// timeline, round skew), an optional -metrics snapshot, and an optional
// benchmark document (`make bench-record`; bench/baseline.json is the
// committed one). The output answers "where did the wall time of this
// distributed run go, and if it died, which shard is guilty" — per round,
// per phase, per shard.
//
// The report is plain text on stdout (or -out); all inputs are the
// schema-versioned JSON the run itself wrote, so the tool works on a
// dump scraped off a dead machine as well as on a fresh local run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"almostmix/internal/cliutil"
	"almostmix/internal/flightrec"
	"almostmix/internal/harness"
	"almostmix/internal/metrics"
	"almostmix/internal/transport"
)

func main() {
	obsPath := flag.String("obs", "", "obs document from a -obsout run (required)")
	metricsPath := flag.String("metrics", "", "metrics snapshot JSON to join (optional)")
	benchPath := flag.String("bench", "", "benchmark document (almostmix-benchmark/v1, e.g. bench/baseline.json) to join (optional)")
	outPath := flag.String("out", "", "report destination (default: stdout)")
	tail := flag.Int("tail", 12, "flight-recorder events to show per endpoint")
	flag.Parse()
	if *obsPath == "" {
		cliutil.Fail("missing -obs (an -obsout document is required)")
	}
	cliutil.Min("tail", *tail, 1)
	cliutil.Writable("out", *outPath)

	doc, err := readObs(*obsPath)
	if err != nil {
		fatal(err)
	}
	var snap *metrics.Snapshot
	if *metricsPath != "" {
		if snap, err = readMetrics(*metricsPath); err != nil {
			fatal(err)
		}
	}
	var bench *benchDoc
	if *benchPath != "" {
		if bench, err = readBench(*benchPath); err != nil {
			fatal(err)
		}
	}

	if *outPath == "" {
		report(os.Stdout, doc, snap, bench, *tail)
		return
	}
	err = harness.WriteFile(*outPath, "obsreport", func(w io.Writer) error {
		report(w, doc, snap, bench, *tail)
		return nil
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsreport:", err)
	os.Exit(1)
}

func readObs(path string) (*transport.ObsDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: %w", err)
	}
	return transport.ReadObs(b)
}

func readMetrics(path string) (*metrics.Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: %w", err)
	}
	var s metrics.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("obsreport: decoding metrics snapshot %s: %w", path, err)
	}
	if s.Schema != metrics.Schema {
		return nil, fmt.Errorf("obsreport: metrics schema %q, want %q", s.Schema, metrics.Schema)
	}
	return &s, nil
}

// benchDoc is the slice of the repo benchmark's document this report
// joins against: what `make bench-record` writes and bench/baseline.json
// commits. The benchmark is a module of its own (and package main), so
// the few fields needed are decoded here; unknown fields are ignored.
type benchDoc struct {
	Schema string `json:"schema"`
	Host   struct {
		GitSHA string `json:"git_sha"`
	} `json:"host"`
	Workloads []struct {
		Name     string                `json:"name"`
		EndToEnd map[string]benchValue `json:"end_to_end"`
		PerLayer map[string]benchValue `json:"per_layer"`
	} `json:"workloads"`
}

type benchValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	benchSchema  = "almostmix-benchmark/v1"
	steadyAllocs = "congest.steady_allocs_per_round" // measured by engine-proc only
)

func readBench(path string) (*benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obsreport: %w", err)
	}
	var d benchDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("obsreport: decoding bench document %s: %w", path, err)
	}
	if d.Schema != benchSchema {
		return nil, fmt.Errorf("obsreport: bench schema %q, want %q", d.Schema, benchSchema)
	}
	return &d, nil
}

// report renders every section the inputs can support. Sections are
// keyed by "== name ==" markers so scripts (the smoke suite) can
// grep them without parsing the layout.
func report(w io.Writer, d *transport.ObsDoc, snap *metrics.Snapshot, bench *benchDoc, tail int) {
	header(w, d)
	rounds(w, d)
	shards(w, d)
	wire(w, d)
	recorder(w, "coordinator", &d.Coordinator, tail)
	for i, sd := range d.ShardDumps {
		if sd == nil {
			fmt.Fprintf(w, "\n== flight recorder: shard %d ==\nno dump shipped (shard died before TELEMETRY)\n", i)
			continue
		}
		recorder(w, fmt.Sprintf("shard %d", i), sd, tail)
	}
	if snap != nil {
		metricsJoin(w, snap)
	}
	if bench != nil {
		benchJoin(w, bench)
	}
}

func header(w io.Writer, d *transport.ObsDoc) {
	fmt.Fprintf(w, "== run ==\n")
	fmt.Fprintf(w, "workload=%s graph=%s n=%d backend=%s shards=%d rounds=%d\n",
		d.Spec.Workload, d.Spec.Graph, d.Spec.N, d.Backend, d.Shards, d.Rounds)
	// The shards time only the rounds they ran: the rest the skip rule
	// jumped, every shard at once, while their nodes slept.
	executed := map[int]bool{}
	for _, r := range d.Timeline {
		if r.Phase == "peer-wait" {
			executed[r.Round] = true
		}
	}
	if len(executed) > 0 {
		fmt.Fprintf(w, "executed_rounds=%d skipped_rounds=%d\n", len(executed), d.Rounds-len(executed))
	}
	fmt.Fprintf(w, "reason=%s", d.Reason)
	if d.GuiltyShard >= 0 {
		fmt.Fprintf(w, " guilty_shard=%d last_round=%d", d.GuiltyShard, d.LastRound)
		if d.Phase != "" {
			fmt.Fprintf(w, " phase=%s", d.Phase)
		}
	}
	fmt.Fprintln(w)
	if d.Error != "" {
		fmt.Fprintf(w, "error: %s\n", d.Error)
	}
}

// rounds aggregates the timeline into one row per round: the wall time
// spent in each phase, summed over shards — per round that is peer-wait,
// each shard's wait on its peers' frames — joined with that round's
// cross-shard skew.
func rounds(w io.Writer, d *transport.ObsDoc) {
	type agg map[string]int64
	perRound := map[int]agg{}
	var phaseSet []string
	seen := map[string]bool{}
	for _, r := range d.Timeline {
		if r.Round < 0 {
			continue // pre-round handshake: reported in the setup line below
		}
		a := perRound[r.Round]
		if a == nil {
			a = agg{}
			perRound[r.Round] = a
		}
		a[r.Phase] += r.WallNS
		if !seen[r.Phase] {
			seen[r.Phase] = true
			phaseSet = append(phaseSet, r.Phase)
		}
	}
	skew := map[int]int64{}
	for _, s := range d.Skew {
		skew[s.Round] = s.SkewNS
	}
	var setup int64
	for _, r := range d.Timeline {
		if r.Round < 0 {
			setup += r.WallNS
		}
	}

	fmt.Fprintf(w, "\n== per-round attribution (wall ns) ==\n")
	if setup > 0 {
		fmt.Fprintf(w, "setup (accept/spec): %d ns\n", setup)
	}
	if len(perRound) == 0 {
		fmt.Fprintln(w, "no per-round timeline (the shards ship it at the end: the run died first, or -obsout ran without timeline capture)")
		return
	}
	// Phase columns in protocol order, not first-seen order: a round is the
	// shards' exchange with their peers, and nothing else runs per round.
	order := []string{"peer-wait"}
	var cols []string
	for _, p := range order {
		if seen[p] {
			cols = append(cols, p)
			seen[p] = false
		}
	}
	for _, p := range phaseSet {
		if seen[p] {
			cols = append(cols, p)
		}
	}
	var roundIDs []int
	for r := range perRound {
		roundIDs = append(roundIDs, r)
	}
	sort.Ints(roundIDs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "round\t%s\tskew_ns\n", strings.Join(cols, "\t"))
	for _, r := range roundIDs {
		fmt.Fprintf(tw, "%d", r)
		for _, p := range cols {
			fmt.Fprintf(tw, "\t%d", perRound[r][p])
		}
		fmt.Fprintf(tw, "\t%d\n", skew[r])
	}
	tw.Flush()
}

// shards totals each shard's wait time across the run. peer-wait is the
// time a shard spent waiting on its peers' frames: the straggler is the
// shard that waits least, since the others wait on it.
func shards(w io.Writer, d *transport.ObsDoc) {
	type tot struct{ peer, other int64 }
	per := map[int]*tot{}
	for _, r := range d.Timeline {
		if r.Shard < 0 {
			continue
		}
		t := per[r.Shard]
		if t == nil {
			t = &tot{}
			per[r.Shard] = t
		}
		if r.Phase == "peer-wait" {
			t.peer += r.WallNS
		} else {
			t.other += r.WallNS
		}
	}
	if len(per) == 0 {
		return
	}
	var ids []int
	for s := range per {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "\n== per-shard wait totals (wall ns) ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tpeer-wait\tother")
	for _, s := range ids {
		t := per[s]
		fmt.Fprintf(tw, "%d\t%d\t%d\n", s, t.peer, t.other)
	}
	tw.Flush()
}

func wire(w io.Writer, d *transport.ObsDoc) {
	if len(d.Wire) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== wire ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "endpoint\tshard\tsent_frames\trecv_frames\tsent_bytes\trecv_bytes\tflushes\tflush_ns")
	for _, ws := range d.Wire {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			ws.Endpoint, ws.Shard, ws.SentFrames, ws.RecvFrames,
			ws.SentBytes, ws.RecvBytes, ws.Flushes, ws.FlushNS)
	}
	tw.Flush()
}

func recorder(w io.Writer, name string, d *flightrec.Dump, tail int) {
	fmt.Fprintf(w, "\n== flight recorder: %s ==\n", name)
	fmt.Fprintf(w, "reason=%s", d.Reason)
	if d.GuiltyShard >= 0 {
		fmt.Fprintf(w, " guilty_shard=%d", d.GuiltyShard)
	}
	fmt.Fprintf(w, " last_round=%d", d.LastRound)
	if d.Phase != "" {
		fmt.Fprintf(w, " phase=%s", d.Phase)
	}
	fmt.Fprintf(w, " events=%d dropped=%d\n", len(d.Events), d.Dropped)
	if d.Error != "" {
		fmt.Fprintf(w, "error: %s\n", d.Error)
	}
	evs := d.Events
	if len(evs) > tail {
		fmt.Fprintf(w, "(last %d of %d)\n", tail, len(evs))
		evs = evs[len(evs)-tail:]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tt_ns\tkind\tframe\tround\tshard\tbytes\tnote")
	for _, ev := range evs {
		frame := ev.Frame
		if frame == "" {
			frame = "-"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%s\n",
			ev.Seq, ev.TNS, ev.Kind, frame, ev.Round, ev.Shard, ev.Bytes, ev.Note)
	}
	tw.Flush()
}

// metricsJoin surfaces the transport slice of a -metrics snapshot:
// every tcpnet_* counter plus quantile rows for the wall-time
// histograms (the new HistogramSnap.Quantile estimator — exact to
// within one bucket of the layout).
func metricsJoin(w io.Writer, s *metrics.Snapshot) {
	fmt.Fprintf(w, "\n== metrics join ==\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	n := 0
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "tcpnet_") {
			fmt.Fprintf(tw, "%s\t%d\n", c.Name, c.Value)
			n++
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, "tcpnet_") {
			fmt.Fprintf(tw, "%s\t%g\n", g.Name, g.Value)
			n++
		}
	}
	tw.Flush()
	if n == 0 {
		fmt.Fprintln(w, "no tcpnet_* instruments in snapshot (proc run, or telemetry off)")
	}
	var hists []metrics.HistogramSnap
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, "tcpnet_") {
			hists = append(hists, h)
		}
	}
	if len(hists) == 0 {
		return
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "histogram\tcount\tp50_le\tp99_le\tsum")
	for _, h := range hists {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\n",
			h.Name, h.Count, leString(h.Quantile(0.50)), leString(h.Quantile(0.99)), h.Sum)
	}
	tw.Flush()
}

func leString(le int64) string {
	if le == metrics.OverflowLe {
		return "+Inf"
	}
	return fmt.Sprintf("%d", le)
}

// benchJoin lists what the benchmark document says about the wire: per
// tcp-* workload its end-to-end figures (simulated rounds apart from host
// time) and the transport.* / faults.* per-layer rows it measured — the
// document names every per-layer metric under every workload, 0 where the
// workload does not measure it, so zero rows are skipped — plus the
// engine tier's steady allocs/round, so one report answers both "was this
// run slow" and "is the hot path still allocation-free".
func benchJoin(w io.Writer, d *benchDoc) {
	fmt.Fprintf(w, "\n== bench join ==\nbench document at git %s\n", d.Host.GitSHA)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	row := func(workload, name string, v benchValue) {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\n", workload, name, v.Value, v.Unit)
	}
	for _, wl := range d.Workloads {
		if v, ok := wl.PerLayer[steadyAllocs]; ok && wl.Name == "engine-proc" {
			row(wl.Name, steadyAllocs, v) // the one row whose good value is 0
		}
		if !strings.HasPrefix(wl.Name, "tcp-") {
			continue
		}
		for _, k := range []string{"ops_per_s", "op_p50_ms", "sim_rounds_per_op"} {
			row(wl.Name, k, wl.EndToEnd[k])
		}
		var keys []string
		for k, v := range wl.PerLayer {
			if v.Value != 0 && (strings.HasPrefix(k, "transport.") || strings.HasPrefix(k, "faults.")) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			row(wl.Name, k, wl.PerLayer[k])
		}
	}
	tw.Flush()
}
