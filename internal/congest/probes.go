package congest

// The trace collector: TraceSink is the one built-in Probe. It records the
// per-round message/congestion trace, the per-round most loaded node, the
// per-node delivery totals, the coalesced phase timeline and cost-ledger
// breakdowns, and exports them as one JSON document or as consecutive
// harness tables in CSV form. It backs the -trace flag of the cmd/
// binaries.
//
// The sink is multi-run aware: it may observe several consecutive runs
// (the -trace flag of cmd/walks records every table row's run into one
// file), and every exported record carries the run's name so the
// segments stay distinguishable. Run names deliberately exclude the
// backend and worker count: traces are part of the measured results,
// which are bit-identical across engines, so the exported bytes must be
// too.

import (
	"fmt"
	"io"
	"strings"

	"almostmix/internal/cost"
	"almostmix/internal/harness"
	"almostmix/internal/metrics"
)

// RoundSample is one exported per-round row: the round's message volume
// and congestion (delivered messages, active and halted node counts,
// maximum inbox, maximum directed-edge load). For analytic engines the
// max_edge_load column is the per-step congestion Lemma 2.5 bounds — for
// randomwalk.Run it equals Stats.PerStepMaxLoad entry for entry. The
// fault columns carry omitempty tags so fault-free traces stay
// byte-identical to the pre-fault-layer export format.
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

// NodeLoadSample is one exported row of the max-load-per-node trajectory:
// the most loaded node of one round and its inbox size (the Lemma 2.4
// occupancy quantity for walk workloads).
type NodeLoadSample struct {
	Run     string `json:"run,omitempty"`
	Round   int    `json:"round"`
	Node    int    `json:"node"`
	MaxLoad int    `json:"max_load"`
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

// CostSample is one exported row of a cost ledger: a flattened span with
// the run it belongs to.
type CostSample struct {
	Run string `json:"run,omitempty"`
	cost.Row
}

// TraceSink collects everything a -trace file holds and writes it — JSON
// for .json paths, concatenated CSV tables otherwise.
type TraceSink struct {
	label  string
	reg    *metrics.Registry
	run    string // the run being observed, label included
	faulty bool   // some round carried fault counts: the CSV grows fault columns

	// Rounds holds one sample per executed round (or analytic step).
	Rounds []RoundSample
	// loads holds each round's most loaded node; totals[v] counts the
	// messages delivered to node v over every observed run.
	loads  []NodeLoadSample
	totals []int
	// Phases holds the marks programs emit via Ctx.Mark and the halt
	// events, coalesced by (run, name) so the export stays compact even
	// when every node marks every phase; phaseAt indexes it by that key.
	Phases  []PhaseEntry
	phaseAt map[string]int
	// Costs holds the flattened ledgers passed to AddCosts.
	Costs []CostSample
}

// NewTraceSink returns an empty sink.
func NewTraceSink() *TraceSink { return &TraceSink{phaseAt: map[string]int{}} }

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

// runName prefixes a run's own name with the sink's label.
func (s *TraceSink) runName(name string) string { return strings.TrimSpace(s.label + " " + name) }

func (s *TraceSink) RunStart(info RunInfo) {
	s.run = s.runName(info.Name)
	if len(s.totals) < info.Nodes {
		s.totals = append(s.totals, make([]int, info.Nodes-len(s.totals))...)
	}
}

func (s *TraceSink) PhaseMark(node, round int, name string) { s.notePhase(round, name) }

func (s *TraceSink) NodeHalted(node, round int) { s.notePhase(round, "halt") }

func (s *TraceSink) notePhase(round int, name string) {
	key := s.run + "\x00" + name
	if i, ok := s.phaseAt[key]; ok {
		e := &s.Phases[i]
		e.Count++
		e.FirstRound = min(e.FirstRound, round)
		e.LastRound = max(e.LastRound, round)
		return
	}
	s.phaseAt[key] = len(s.Phases)
	s.Phases = append(s.Phases, PhaseEntry{
		Run: s.run, Name: name, Count: 1, FirstRound: round, LastRound: round,
	})
}

func (s *TraceSink) RoundEnd(rec *RoundRecord) {
	if rec.Dropped|rec.Duplicated|rec.Delayed|rec.Crashed != 0 {
		s.faulty = true
	}
	s.Rounds = append(s.Rounds, RoundSample{
		Run:          s.run,
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
	s.loads = append(s.loads, NodeLoadSample{
		Run:     s.run,
		Round:   rec.Round,
		Node:    rec.MaxInboxNode,
		MaxLoad: rec.MaxInbox,
	})
	for v, n := range rec.InboxSizes {
		s.totals[v] += n
	}
}

func (s *TraceSink) RunEnd(int, error) {}

// AddCosts flattens a cost ledger into the sink under the given run name
// (prefixed with the sink's label like every other record). Nil or empty
// ledgers add nothing.
func (s *TraceSink) AddCosts(run string, led *cost.Ledger) {
	if led == nil {
		return
	}
	run = s.runName(run)
	for _, row := range led.Rows() {
		s.Costs = append(s.Costs, CostSample{Run: run, Row: row})
	}
	if s.reg != nil {
		for _, w := range led.WallRows() {
			s.reg.Counter(fmt.Sprintf("span_wall_ns{run=%s,path=%s}", run, w.Path)).Add(w.WallNS)
		}
	}
}

// traceJSON is the on-disk JSON shape of a TraceSink.
type traceJSON struct {
	Rounds     []RoundSample    `json:"rounds"`
	NodeLoads  []NodeLoadSample `json:"node_loads"`
	NodeTotals []int            `json:"node_totals"`
	Phases     []PhaseEntry     `json:"phases"`
	Costs      []CostSample     `json:"costs,omitempty"`
}

// WriteJSON writes the trace as one JSON document.
func (s *TraceSink) WriteJSON(w io.Writer) error {
	return harness.WriteJSON(w, traceJSON{
		Rounds:     s.Rounds,
		NodeLoads:  s.loads,
		NodeTotals: s.totals,
		Phases:     s.Phases,
		Costs:      s.Costs,
	})
}

// WriteCSV writes the trace as consecutive CSV tables separated by blank
// lines, in the order: per-round trace, per-round max node load, per-node
// totals, phase timeline, cost ledger. The per-round trace has the fault
// columns only when some observed round carried fault counts, keeping
// fault-free CSV exports byte-identical.
func (s *TraceSink) WriteCSV(w io.Writer) error {
	cols := []string{"run", "round", "delivered", "active", "halted",
		"max_inbox", "max_inbox_node", "max_edge_load"}
	if s.faulty {
		cols = append(cols, "dropped", "duplicated", "delayed", "crashed")
	}
	rounds := harness.NewTable("per-round trace", cols...)
	for _, r := range s.Rounds {
		row := []any{r.Run, r.Round, r.Delivered, r.Active, r.Halted,
			r.MaxInbox, r.MaxInboxNode, r.MaxEdgeLoad}
		if s.faulty {
			row = append(row, r.Dropped, r.Duplicated, r.Delayed, r.Crashed)
		}
		rounds.AddRow(row...)
	}
	loads := harness.NewTable("per-round max node load", "run", "round", "node", "max_load")
	for _, l := range s.loads {
		loads.AddRow(l.Run, l.Round, l.Node, l.MaxLoad)
	}
	totals := harness.NewTable("per-node delivered totals", "node", "delivered")
	for v, n := range s.totals {
		totals.AddRow(v, n)
	}
	phases := harness.NewTable("phase timeline", "run", "phase", "count", "first_round", "last_round")
	for _, e := range s.Phases {
		phases.AddRow(e.Run, e.Name, e.Count, e.FirstRound, e.LastRound)
	}
	costs := harness.NewTable("cost ledger", "run", "path", "unit", "depth", "self", "mul", "total", "rolled")
	for _, c := range s.Costs {
		costs.AddRow(c.Run, c.Path, c.Unit, c.Depth, c.Self, c.Mul, c.Total, c.Rolled)
	}
	return harness.WriteCSV(w, rounds, loads, totals, phases, costs)
}

// WriteFile writes the trace to path: JSON when the extension is .json,
// CSV otherwise. Every I/O error (create, write or close) is returned,
// wrapped with the path, so the cmd binaries can propagate export
// failures to their exit code instead of best-effort writing.
func (s *TraceSink) WriteFile(path string) error {
	return harness.WriteDocument(path, "trace", s)
}
