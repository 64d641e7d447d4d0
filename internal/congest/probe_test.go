package congest

// Tests of the probe layer: the per-round records and event streams the
// engines emit, the regression guards for the lifecycle bugs (stale
// Ctx.Round after Halt, silent Network reuse), and the trace collector's
// exporters.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// recordingProbe formats every hook invocation into one string, copying
// the borrowed slices so records can be compared after the run.
type recordingProbe struct {
	events []string
}

func (p *recordingProbe) RunStart(info RunInfo) {
	p.events = append(p.events, fmt.Sprintf("start name=%q n=%d m=%d", info.Name, info.Nodes, info.Edges))
}

func (p *recordingProbe) PhaseMark(node, round int, name string) {
	p.events = append(p.events, fmt.Sprintf("mark node=%d round=%d name=%q", node, round, name))
}

func (p *recordingProbe) NodeHalted(node, round int) {
	p.events = append(p.events, fmt.Sprintf("halt node=%d round=%d", node, round))
}

func (p *recordingProbe) RoundEnd(rec *RoundRecord) {
	e := fmt.Sprintf(
		"round=%d delivered=%d active=%d halted=%d maxInbox=%d@%d maxEdge=%d inboxes=%v edges=%v",
		rec.Round, rec.Delivered, rec.Active, rec.Halted,
		rec.MaxInbox, rec.MaxInboxNode, rec.MaxEdgeLoad,
		append([]int(nil), rec.InboxSizes...), append([]int64(nil), rec.EdgeLoad...))
	// Fault counts only when present, so fault-free want-strings stay short.
	if rec.Dropped|rec.Duplicated|rec.Delayed|rec.Crashed != 0 {
		e += fmt.Sprintf(" faults=%d/%d/%d/%d",
			rec.Dropped, rec.Duplicated, rec.Delayed, rec.Crashed)
	}
	p.events = append(p.events, e)
}

func (p *recordingProbe) RunEnd(rounds int, err error) {
	p.events = append(p.events, fmt.Sprintf("end rounds=%d err=%v", rounds, err))
}

// TestProbeRoundRecord checks every field of the aggregated round record
// on a path graph where the traffic is known exactly: one broadcast round,
// then silence.
func TestProbeRoundRecord(t *testing.T) {
	g := graph.Path(3) // edges 0-1, 1-2; node 1 has degree 2
	rec := &recordingProbe{}
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) { ctx.Broadcast(ping) },
			step: func(ctx *Ctx, _ []Inbound) { ctx.Halt() },
		}
	}, rngutil.NewSource(1)).SetProbe(rec)
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`start name="" n=3 m=2`,
		"halt node=0 round=1",
		"halt node=1 round=1",
		"halt node=2 round=1",
		"round=1 delivered=4 active=3 halted=3 maxInbox=2@1 maxEdge=1 inboxes=[1 2 1] edges=[1 1 1 1]",
		"end rounds=1 err=<nil>",
	}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Fatalf("event stream:\n got %q\nwant %q", rec.events, want)
	}
}

// TestProbePhaseMarks checks that Ctx.Mark events reach the probe with
// the emitting node, the correct round (0 for Init), and in node-ID
// order, and that Tracing reports the probe's presence.
func TestProbePhaseMarks(t *testing.T) {
	g := graph.Ring(3)
	rec := &recordingProbe{}
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				if !ctx.Tracing() {
					t.Error("Tracing() = false with a probe attached")
				}
				ctx.Mark("boot")
			},
			step: func(ctx *Ctx, _ []Inbound) {
				if ctx.ID() == 2 {
					ctx.Mark(fmt.Sprintf("step %d", ctx.Round()))
				}
				if ctx.Round() >= 2 {
					ctx.Halt()
				}
			},
		}
	}, rngutil.NewSource(1)).SetProbe(rec)
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	var marks []string
	for _, e := range rec.events {
		if strings.HasPrefix(e, "mark") {
			marks = append(marks, e)
		}
	}
	want := []string{
		`mark node=0 round=0 name="boot"`,
		`mark node=1 round=0 name="boot"`,
		`mark node=2 round=0 name="boot"`,
		`mark node=2 round=1 name="step 1"`,
		`mark node=2 round=2 name="step 2"`,
	}
	if fmt.Sprint(marks) != fmt.Sprint(want) {
		t.Fatalf("marks:\n got %q\nwant %q", marks, want)
	}
}

// TestMarkWithoutProbeIsNoop: Ctx.Mark and Tracing must be free and safe
// when no probe is attached.
func TestMarkWithoutProbeIsNoop(t *testing.T) {
	g := graph.Ring(3)
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{init: func(ctx *Ctx) {
			if ctx.Tracing() {
				t.Error("Tracing() = true without a probe")
			}
			ctx.Mark("dropped")
			ctx.Halt()
		}}
	}, rngutil.NewSource(1))
	if _, err := net.Run(2); err != nil {
		t.Fatal(err)
	}
}

// TestCtxRoundAdvancesAfterHalt is the regression test for the stale-
// round bug: a node that halts early must still observe the global round
// counter advancing, not the round it halted in.
func TestCtxRoundAdvancesAfterHalt(t *testing.T) {
	g := graph.Ring(4)
	var ctx0 *Ctx
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				if ctx.ID() == 0 {
					ctx0 = ctx
				}
			},
			step: func(ctx *Ctx, _ []Inbound) {
				if ctx.ID() == 0 || ctx.Round() >= 5 {
					ctx.Halt()
				}
			},
		}
	}, rngutil.NewSource(1))
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if net.Rounds() != 5 {
		t.Fatalf("network ran %d rounds, want 5", net.Rounds())
	}
	if got := ctx0.Round(); got != net.Rounds() {
		t.Fatalf("halted node's Round() = %d, want the global %d", got, net.Rounds())
	}
}

// TestNetworkSingleUse: a second run through any entry point must fail
// loudly with ErrNetworkReused instead of silently corrupting state.
func TestNetworkSingleUse(t *testing.T) {
	build := func() *Network {
		return NewUniformNetwork(graph.Ring(4), func(v int) Program {
			return programFunc{}
		}, rngutil.NewSource(1))
	}
	rerun := map[string]func(n *Network) (int, error){
		"Run":           func(n *Network) (int, error) { return n.Run(5) },
		"RunUntilQuiet": func(n *Network) (int, error) { return n.RunUntilQuiet(5) },
	}
	for name, second := range rerun {
		net := build()
		rounds, err := net.Run(5)
		if err != nil {
			t.Fatalf("%s: first run: %v", name, err)
		}
		got, err := second(net)
		if !errors.Is(err, ErrNetworkReused) {
			t.Fatalf("%s after Run: err = %v, want ErrNetworkReused", name, err)
		}
		if got != rounds || net.Rounds() != rounds {
			t.Fatalf("%s: rejected rerun changed the round count: %d, want %d", name, got, rounds)
		}
	}
}

// TestNetworkSingleUseEmitsNoSpuriousEvents: a rejected rerun never ran,
// so it must not append any events to an attached probe — the stream
// stays one balanced RunStart…RunEnd.
func TestNetworkSingleUseEmitsNoSpuriousEvents(t *testing.T) {
	rec := &recordingProbe{}
	net := NewUniformNetwork(graph.Ring(3), func(v int) Program {
		return programFunc{}
	}, rngutil.NewSource(1)).SetProbe(rec)
	if _, err := net.Run(3); err != nil {
		t.Fatal(err)
	}
	before := len(rec.events)
	if _, err := net.Run(3); !errors.Is(err, ErrNetworkReused) {
		t.Fatalf("second run: %v", err)
	}
	if len(rec.events) != before {
		t.Fatalf("rejected rerun emitted events: %q", rec.events[before:])
	}
}

// TestWorkerPoolMultiShardPanic: when several shards panic in one
// dispatch, exactly one panic propagates and the pool remains usable for
// the next dispatch.
func TestWorkerPoolMultiShardPanic(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic propagated from the pool")
			}
			if s, ok := r.(string); !ok || !strings.HasPrefix(s, "shard ") {
				t.Fatalf("unexpected panic payload %v", r)
			}
		}()
		pool.dispatch(4, func(shard int) {
			panic(fmt.Sprintf("shard %d", shard))
		})
	}()
	// The pool must have cleared the captured panics and stay usable.
	var hits [4]bool
	pool.dispatch(4, func(shard int) { hits[shard] = true })
	for shard, ok := range hits {
		if !ok {
			t.Fatalf("shard %d did not run after the panicking dispatch", shard)
		}
	}
}

// alwaysSend keeps one message per round in flight so RunUntilQuiet never
// observes silence.
type alwaysSend struct{}

func (alwaysSend) Init(ctx *Ctx) { ctx.Send(0, ping) }
func (alwaysSend) Step(ctx *Ctx, _ []Inbound) {
	ctx.Send(0, ping)
}

// TestRoundLimitErrorsIdenticalAcrossEngines: both engines, through both
// Run and RunUntilQuiet, must fail the round limit with the same error
// text and the same wrapped sentinel.
func TestRoundLimitErrorsIdenticalAcrossEngines(t *testing.T) {
	for _, quiet := range []bool{false, true} {
		build := func() *Network {
			return NewUniformNetwork(graph.Ring(4), func(v int) Program {
				return alwaysSend{}
			}, rngutil.NewSource(1))
		}
		run := func(net *Network, workers int) (int, error) {
			net.SetWorkers(workers)
			if quiet {
				return net.RunUntilQuiet(5)
			}
			return net.Run(5)
		}
		seqNet := build()
		seqRounds, seqErr := run(seqNet, 1)
		if !errors.Is(seqErr, ErrRoundLimit) {
			t.Fatalf("quiet=%v: sequential err = %v, want ErrRoundLimit", quiet, seqErr)
		}
		for _, workers := range []int{2, 8} {
			parNet := build()
			parRounds, parErr := run(parNet, workers)
			if !errors.Is(parErr, ErrRoundLimit) {
				t.Fatalf("quiet=%v workers=%d: err = %v, want ErrRoundLimit", quiet, workers, parErr)
			}
			if parErr.Error() != seqErr.Error() || parRounds != seqRounds {
				t.Fatalf("quiet=%v workers=%d: (rounds=%d, err=%q) diverges from sequential (rounds=%d, err=%q)",
					quiet, workers, parRounds, parErr, seqRounds, seqErr)
			}
		}
	}
}

// TestTraceSinkExporters runs a small workload through the bundled sink
// and checks both export formats round-trip the expected records.
func TestTraceSinkExporters(t *testing.T) {
	g := graph.Ring(4)
	sink := NewTraceSink().Label("unit")
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				ctx.Mark("boot")
				ctx.Broadcast(ping)
			},
			step: func(ctx *Ctx, _ []Inbound) { ctx.Halt() },
		}
	}, rngutil.NewSource(1)).SetProbe(sink)
	if _, err := net.Run(5); err != nil {
		t.Fatal(err)
	}

	if len(sink.Rounds) != 1 {
		t.Fatalf("round samples = %d, want 1", len(sink.Rounds))
	}
	s := sink.Rounds[0]
	if s.Run != "unit" || s.Round != 1 || s.Delivered != 2*g.M() || s.MaxEdgeLoad != 1 {
		t.Fatalf("round sample %+v", s)
	}

	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rounds []RoundSample `json:"rounds"`
		Phases []PhaseEntry  `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if len(doc.Rounds) != 1 || doc.Rounds[0] != s {
		t.Fatalf("JSON rounds %+v, want [%+v]", doc.Rounds, s)
	}
	// "boot" marks from all 4 nodes coalesce; halts appear as "halt".
	byName := map[string]PhaseEntry{}
	for _, e := range doc.Phases {
		byName[e.Name] = e
	}
	if e := byName["boot"]; e.Count != 4 || e.FirstRound != 0 || e.LastRound != 0 {
		t.Fatalf("boot phase entry %+v", e)
	}
	if e := byName["halt"]; e.Count != 4 || e.FirstRound != 1 {
		t.Fatalf("halt phase entry %+v", e)
	}

	buf.Reset()
	if err := sink.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	for _, header := range []string{
		"run,round,delivered,active,halted,max_inbox,max_inbox_node,max_edge_load",
		"run,round,node,max_load",
		"node,delivered",
		"run,phase,count,first_round,last_round",
	} {
		if !strings.Contains(csv, header) {
			t.Fatalf("CSV export missing header %q:\n%s", header, csv)
		}
	}

	if got := sink.totals[0]; got != 2 {
		t.Fatalf("node 0 delivered total = %d, want 2", got)
	}
}

func TestTraceSinkCosts(t *testing.T) {
	led := cost.New("demo", "base rounds")
	led.Open("prep", "base rounds", 1)
	led.Charge(3)
	led.Close()
	led.Open("recursion", "G0 rounds", 4)
	led.Charge(2)
	led.Close()
	led.Close()
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}

	sink := NewTraceSink().Label("unit")
	sink.AddCosts("route", led)
	sink.AddCosts("ignored", nil) // nil ledgers are dropped silently

	if len(sink.Costs) != 3 {
		t.Fatalf("cost samples = %d, want 3", len(sink.Costs))
	}
	root := sink.Costs[0]
	if root.Run != "unit route" || root.Path != "demo" || root.Depth != 0 ||
		root.Total != 3+4*2 || root.Rolled != 11 {
		t.Fatalf("root sample %+v", root)
	}
	byPath := map[string]CostSample{}
	for _, c := range sink.Costs {
		byPath[c.Path] = c
	}
	if c := byPath["demo/prep"]; c.Self != 3 || c.Mul != 1 || c.Rolled != 3 || c.Depth != 1 {
		t.Fatalf("prep sample %+v", c)
	}
	if c := byPath["demo/recursion"]; c.Self != 2 || c.Mul != 4 || c.Rolled != 8 || c.Unit != "G0 rounds" {
		t.Fatalf("recursion sample %+v", c)
	}

	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Costs []CostSample `json:"costs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if len(doc.Costs) != 3 || doc.Costs[0] != root {
		t.Fatalf("JSON costs %+v", doc.Costs)
	}

	buf.Reset()
	if err := sink.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	if !strings.Contains(csv, "run,path,unit,depth,self,mul,total,rolled") {
		t.Fatalf("CSV lacks the cost-ledger header:\n%s", csv)
	}
	if !strings.Contains(csv, "unit route,demo/recursion,G0 rounds,1,2,4,2,8") {
		t.Fatalf("CSV lacks the recursion row:\n%s", csv)
	}
}
