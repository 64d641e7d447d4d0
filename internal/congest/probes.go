package congest

// Built-in probes: a per-round message/congestion trace, a per-node load
// trace, and a phase timeline, each exportable as JSON and as a
// harness.Table (whose CSV method gives the RFC-4180 form). TraceSink
// bundles the three behind one Probe for the experiment binaries'
// -trace flags.
//
// All built-ins are multi-run aware: a single probe may observe several
// consecutive runs (the -trace flag of cmd/walks records every table row's
// run into one file), and every exported record carries the run's name so
// the segments stay distinguishable. Run names deliberately exclude the
// engine and worker count: traces are part of the measured results, which
// are bit-identical across engines, so the exported bytes must be too.

import (
	"fmt"
	"io"
	"strings"

	"almostmix/internal/cost"
	"almostmix/internal/harness"
	"almostmix/internal/metrics"
)

// RoundSample is one exported row of a RoundTrace. The fault columns
// carry omitempty tags so fault-free traces stay byte-identical to the
// pre-fault-layer export format.
type RoundSample struct {
	Run          string `json:"run,omitempty"`
	Round        int    `json:"round"`
	Delivered    int    `json:"delivered"`
	Active       int    `json:"active"`
	Halted       int    `json:"halted"`
	MaxInbox     int    `json:"max_inbox"`
	MaxInboxNode int    `json:"max_inbox_node"`
	MaxEdgeLoad  int64  `json:"max_edge_load"`
	Dropped      int    `json:"dropped,omitempty"`
	Duplicated   int    `json:"duplicated,omitempty"`
	Delayed      int    `json:"delayed,omitempty"`
	Crashed      int    `json:"crashed,omitempty"`
}

// RoundTrace records one RoundSample per executed round: the per-round
// message volume and congestion trajectory (delivered messages, active
// and halted node counts, maximum inbox, maximum directed-edge load).
// For analytic engines the max_edge_load column is the per-step
// congestion Lemma 2.5 bounds — for randomwalk.Run it equals
// Stats.PerStepMaxLoad entry for entry.
type RoundTrace struct {
	NopProbe
	run     string
	faulty  bool // any round carried fault counts → CSV grows fault columns
	Samples []RoundSample
}

// NewRoundTrace returns an empty per-round trace probe.
func NewRoundTrace() *RoundTrace { return &RoundTrace{} }

func (t *RoundTrace) RunStart(info RunInfo) { t.run = info.Name }

func (t *RoundTrace) RoundEnd(rec *RoundRecord) {
	if rec.Dropped|rec.Duplicated|rec.Delayed|rec.Crashed != 0 {
		t.faulty = true
	}
	t.Samples = append(t.Samples, RoundSample{
		Run:          t.run,
		Round:        rec.Round,
		Delivered:    rec.Delivered,
		Active:       rec.Active,
		Halted:       rec.Halted,
		MaxInbox:     rec.MaxInbox,
		MaxInboxNode: rec.MaxInboxNode,
		MaxEdgeLoad:  rec.MaxEdgeLoad,
		Dropped:      rec.Dropped,
		Duplicated:   rec.Duplicated,
		Delayed:      rec.Delayed,
		Crashed:      rec.Crashed,
	})
}

// Table renders the trace as a harness table (one row per round). The
// fault columns appear only when some observed round carried fault
// counts, keeping fault-free CSV exports byte-identical.
func (t *RoundTrace) Table() *harness.Table {
	cols := []string{"run", "round", "delivered", "active", "halted",
		"max_inbox", "max_inbox_node", "max_edge_load"}
	if t.faulty {
		cols = append(cols, "dropped", "duplicated", "delayed", "crashed")
	}
	tb := harness.NewTable("per-round trace", cols...)
	for _, s := range t.Samples {
		row := []any{s.Run, s.Round, s.Delivered, s.Active, s.Halted,
			s.MaxInbox, s.MaxInboxNode, s.MaxEdgeLoad}
		if t.faulty {
			row = append(row, s.Dropped, s.Duplicated, s.Delayed, s.Crashed)
		}
		tb.AddRow(row...)
	}
	return tb
}

// NodeLoadSample is one exported row of a NodeLoadTrace: the most loaded
// node of one round.
type NodeLoadSample struct {
	Run     string `json:"run,omitempty"`
	Round   int    `json:"round"`
	Node    int    `json:"node"`
	MaxLoad int    `json:"max_load"`
}

// NodeLoadTrace records the max-load-per-node trajectory: per round, the
// node with the largest inbox and its size (the Lemma 2.4 occupancy
// quantity for walk workloads), plus cumulative per-node delivery totals
// aggregated over all observed runs.
type NodeLoadTrace struct {
	NopProbe
	run      string
	PerRound []NodeLoadSample
	// Totals[v] counts all messages delivered to node v across runs.
	Totals []int
}

// NewNodeLoadTrace returns an empty per-node load trace probe.
func NewNodeLoadTrace() *NodeLoadTrace { return &NodeLoadTrace{} }

func (t *NodeLoadTrace) RunStart(info RunInfo) {
	t.run = info.Name
	if len(t.Totals) < info.Nodes {
		grown := make([]int, info.Nodes)
		copy(grown, t.Totals)
		t.Totals = grown
	}
}

func (t *NodeLoadTrace) RoundEnd(rec *RoundRecord) {
	t.PerRound = append(t.PerRound, NodeLoadSample{
		Run:     t.run,
		Round:   rec.Round,
		Node:    rec.MaxInboxNode,
		MaxLoad: rec.MaxInbox,
	})
	for v, s := range rec.InboxSizes {
		t.Totals[v] += s
	}
}

// Table renders the per-round max-load trace.
func (t *NodeLoadTrace) Table() *harness.Table {
	tb := harness.NewTable("per-round max node load", "run", "round", "node", "max_load")
	for _, s := range t.PerRound {
		tb.AddRow(s.Run, s.Round, s.Node, s.MaxLoad)
	}
	return tb
}

// TotalsTable renders the cumulative per-node delivery totals.
func (t *NodeLoadTrace) TotalsTable() *harness.Table {
	tb := harness.NewTable("per-node delivered totals", "node", "delivered")
	for v, c := range t.Totals {
		tb.AddRow(v, c)
	}
	return tb
}

// PhaseEntry is one coalesced phase-timeline entry: all marks sharing a
// name within one run, with the round span they cover. Halt events appear
// under the reserved name "halt".
type PhaseEntry struct {
	Run        string `json:"run,omitempty"`
	Name       string `json:"name"`
	Count      int    `json:"count"`
	FirstRound int    `json:"first_round"`
	LastRound  int    `json:"last_round"`
}

// PhaseTimeline collects the named phase markers programs emit via
// Ctx.Mark, plus node halt events, coalesced by (run, name) so the export
// stays compact even when every node marks every phase.
type PhaseTimeline struct {
	NopProbe
	run     string
	Entries []PhaseEntry
	idx     map[string]int
}

// NewPhaseTimeline returns an empty phase-timeline probe.
func NewPhaseTimeline() *PhaseTimeline { return &PhaseTimeline{idx: map[string]int{}} }

func (t *PhaseTimeline) RunStart(info RunInfo) { t.run = info.Name }

func (t *PhaseTimeline) PhaseMark(node, round int, name string) { t.note(round, name) }

func (t *PhaseTimeline) NodeHalted(node, round int) { t.note(round, "halt") }

func (t *PhaseTimeline) note(round int, name string) {
	key := t.run + "\x00" + name
	if i, ok := t.idx[key]; ok {
		e := &t.Entries[i]
		e.Count++
		if round < e.FirstRound {
			e.FirstRound = round
		}
		if round > e.LastRound {
			e.LastRound = round
		}
		return
	}
	t.idx[key] = len(t.Entries)
	t.Entries = append(t.Entries, PhaseEntry{
		Run: t.run, Name: name, Count: 1, FirstRound: round, LastRound: round,
	})
}

// Table renders the timeline, one row per (run, name).
func (t *PhaseTimeline) Table() *harness.Table {
	tb := harness.NewTable("phase timeline", "run", "phase", "count", "first_round", "last_round")
	for _, e := range t.Entries {
		tb.AddRow(e.Run, e.Name, e.Count, e.FirstRound, e.LastRound)
	}
	return tb
}

// CostSample is one exported row of a cost ledger: a flattened span with
// the run it belongs to.
type CostSample struct {
	Run    string `json:"run,omitempty"`
	Path   string `json:"path"`
	Unit   string `json:"unit,omitempty"`
	Depth  int    `json:"depth"`
	Self   int    `json:"self"`
	Mul    int    `json:"mul"`
	Total  int    `json:"total"`
	Rolled int    `json:"rolled"`
}

// TraceSink bundles the three built-in probes behind one Probe, labels
// consecutive runs, collects cost-ledger breakdowns, and writes the
// combined trace to a file — JSON for .json paths, concatenated CSV
// tables otherwise. It backs the -trace flag of the cmd/ binaries.
type TraceSink struct {
	label  string
	reg    *metrics.Registry
	Rounds *RoundTrace
	Loads  *NodeLoadTrace
	Phases *PhaseTimeline
	Costs  []CostSample
}

// NewTraceSink returns a sink with fresh built-in probes.
func NewTraceSink() *TraceSink {
	return &TraceSink{
		Rounds: NewRoundTrace(),
		Loads:  NewNodeLoadTrace(),
		Phases: NewPhaseTimeline(),
	}
}

// Label names the next run(s) observed by the sink. Engines start runs
// unnamed; a run that announces its own name (RunInfo.Name) is prefixed
// with the label instead of replaced, so "rr64d8" + "prep" exports as
// "rr64d8 prep".
func (s *TraceSink) Label(name string) *TraceSink {
	s.label = name
	return s
}

// WithMetrics pairs the sink with a host-metrics registry: every ledger
// passed to AddCosts additionally records one wall-clock counter per
// span, named "span_wall_ns{run=<run>,path=<path>}" with run and path
// exactly matching the trace's cost rows. The -trace file itself stays
// byte-deterministic (wall times never enter it); the pairing lives in
// the -metrics snapshot. A nil registry leaves the sink unchanged.
func (s *TraceSink) WithMetrics(reg *metrics.Registry) *TraceSink {
	s.reg = reg
	return s
}

func (s *TraceSink) fanout() MultiProbe { return MultiProbe{s.Rounds, s.Loads, s.Phases} }

func (s *TraceSink) RunStart(info RunInfo) {
	info.Name = strings.TrimSpace(s.label + " " + info.Name)
	s.fanout().RunStart(info)
}

func (s *TraceSink) PhaseMark(node, round int, name string) {
	s.fanout().PhaseMark(node, round, name)
}

func (s *TraceSink) NodeHalted(node, round int) { s.fanout().NodeHalted(node, round) }

func (s *TraceSink) RoundEnd(rec *RoundRecord) { s.fanout().RoundEnd(rec) }

func (s *TraceSink) RunEnd(rounds int, err error) { s.fanout().RunEnd(rounds, err) }

// AddCosts flattens a cost ledger into the sink under the given run name
// (prefixed with the sink's label like every other record). Nil or empty
// ledgers add nothing.
func (s *TraceSink) AddCosts(run string, led *cost.Ledger) {
	if led == nil {
		return
	}
	run = strings.TrimSpace(s.label + " " + run)
	for _, row := range led.Rows() {
		s.Costs = append(s.Costs, CostSample{
			Run:    run,
			Path:   row.Path,
			Unit:   row.Unit,
			Depth:  row.Depth,
			Self:   row.Self,
			Mul:    row.Mul,
			Total:  row.Total,
			Rolled: row.Rolled,
		})
	}
	if s.reg != nil {
		for _, w := range led.WallRows() {
			s.reg.Counter(fmt.Sprintf("span_wall_ns{run=%s,path=%s}", run, w.Path)).Add(w.WallNS)
		}
	}
}

// CostTable renders the collected cost-ledger rows as a harness table.
func (s *TraceSink) CostTable() *harness.Table {
	tb := harness.NewTable("cost ledger",
		"run", "path", "unit", "depth", "self", "mul", "total", "rolled")
	for _, c := range s.Costs {
		tb.AddRow(c.Run, c.Path, c.Unit, c.Depth, c.Self, c.Mul, c.Total, c.Rolled)
	}
	return tb
}

// traceJSON is the on-disk JSON shape of a TraceSink.
type traceJSON struct {
	Rounds     []RoundSample    `json:"rounds"`
	NodeLoads  []NodeLoadSample `json:"node_loads"`
	NodeTotals []int            `json:"node_totals"`
	Phases     []PhaseEntry     `json:"phases"`
	Costs      []CostSample     `json:"costs,omitempty"`
}

// WriteJSON writes the combined trace as one JSON document.
func (s *TraceSink) WriteJSON(w io.Writer) error {
	return harness.WriteJSON(w, traceJSON{
		Rounds:     s.Rounds.Samples,
		NodeLoads:  s.Loads.PerRound,
		NodeTotals: s.Loads.Totals,
		Phases:     s.Phases.Entries,
		Costs:      s.Costs,
	})
}

// WriteCSV writes the combined trace as consecutive CSV tables separated
// by blank lines, in the order: per-round trace, per-round max node load,
// per-node totals, phase timeline, cost ledger.
func (s *TraceSink) WriteCSV(w io.Writer) error {
	return harness.WriteCSV(w,
		s.Rounds.Table(), s.Loads.Table(), s.Loads.TotalsTable(), s.Phases.Table(),
		s.CostTable())
}

// WriteFile writes the trace to path: JSON when the extension is .json,
// CSV otherwise. Every I/O error (create, write or close) is returned,
// wrapped with the path, so the cmd binaries can propagate export
// failures to their exit code instead of best-effort writing.
func (s *TraceSink) WriteFile(path string) error {
	return harness.WriteDocument(path, "trace", s)
}
