package congest

// Tests of the fault-injection layer: the differential contract (a fixed
// (seed, spec) pair reproduces a bit-identical faulty execution for every
// worker and shard count), the empty-plan byte-identity guarantee,
// the crash/recovery and sever semantics, the fault counters' journey
// through probe records and metrics, the pinned Halt-round send contract,
// and the int32 edge-load wraparound regression.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// beatBuild is the workhorse fault workload: every node broadcasts each
// round and accumulates how many messages it received, halting in
// staggered waves, so the final state depends on every injected event.
func beatBuild(lastRound int) func(seed uint64) (*Network, func() any) {
	return func(seed uint64) (*Network, func() any) {
		g := diffGraph(seed)
		received := make([]int, g.N())
		net := NewUniformNetwork(g, func(v int) Program {
			return programFunc{
				init: func(ctx *Ctx) { ctx.Broadcast(testInt(0)) },
				step: func(ctx *Ctx, inbox []Inbound) {
					received[ctx.ID()] += len(inbox)
					if ctx.Round() >= lastRound+ctx.ID()%5 {
						ctx.Halt()
						return
					}
					ctx.Broadcast(testInt(ctx.Round()))
				},
			}
		}, rngutil.NewSource(seed))
		return net, func() any { return received }
	}
}

func TestDifferentialFaultsMessages(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "msg-faults",
		spec:      "drop=0.1,dup=0.08,delay=0.1:3",
		maxRounds: 60,
		build:     beatBuild(12),
	})
}

func TestDifferentialFaultsCrashRecover(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "crash-recover",
		spec:      "drop=0.05,crash=3@4+5,crash=7@2+8",
		maxRounds: 80,
		build:     beatBuild(12),
	})
}

func TestDifferentialFaultsPermanentCrash(t *testing.T) {
	// Node 5 never recovers, so it never halts and the run must end in
	// the same ErrRoundLimit on every engine.
	runDifferential(t, diffScenario{
		name:      "crash-permanent",
		spec:      "crash=5@3,drop=0.05",
		maxRounds: 40,
		build:     beatBuild(10),
	})
}

func TestDifferentialFaultsSever(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "sever",
		spec:      "sever=0@2,sever=3@5,dup=0.05",
		maxRounds: 60,
		build:     beatBuild(12),
	})
}

// TestDifferentialFaultsQuietEnd is the quiet-terminated faulty run: a
// silent round must not end it while a delayed message is still buffered
// at some receiver (summed per range on shards) or a crashed node is due
// back, and every executor has to agree on which round that is.
func TestDifferentialFaultsQuietEnd(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "quiet-end",
		spec:      "delay=0.3:3,crash=2@2+4",
		quiet:     true,
		maxRounds: 200,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			result := make([]int, g.N())
			net := NewUniformNetwork(g, func(v int) Program {
				return &leaderProgram{result: result}
			}, rngutil.NewSource(seed))
			return net, func() any { return result }
		},
	})
}

// TestEmptyFaultPlanByteIdentity: attaching an empty plan must leave the
// execution — probe event stream and exported trace bytes — byte-identical
// to a run with no plan at all, for every worker count.
func TestEmptyFaultPlanByteIdentity(t *testing.T) {
	// One run per probe: the recorded event stream, then the sink's export.
	run := func(emptyPlan bool, workers int) ([]string, []byte) {
		rec := &recordingProbe{}
		sink := NewTraceSink().Label("unit")
		for _, p := range []Probe{rec, sink} {
			net, _ := beatBuild(8)(7)
			if emptyPlan {
				net.SetFaults(faults.New(99))
			}
			if _, err := net.SetWorkers(workers).SetProbe(p).Run(40); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return rec.events, buf.Bytes()
	}
	baseEvents, baseJSON := run(false, 1)
	for _, workers := range []int{1, 2, 8} {
		events, doc := run(true, workers)
		if !reflect.DeepEqual(events, baseEvents) {
			t.Errorf("workers=%d: empty plan changes the probe event stream", workers)
		}
		if !bytes.Equal(doc, baseJSON) {
			t.Errorf("workers=%d: empty plan changes the exported trace bytes", workers)
		}
	}
	if ct := faults.New(99).Totals(); ct.Any() {
		t.Errorf("empty plan accumulated totals %+v", ct)
	}
}

// TestFaultCountsReachProbeAndMetrics follows the counters through both
// observability channels: the per-round probe records must sum to the
// plan totals, and the metrics snapshot must carry the same values.
func TestFaultCountsReachProbeAndMetrics(t *testing.T) {
	plan := faults.New(5).WithDrop(0.2).WithDuplicate(0.1).WithDelay(0.1, 2).WithCrash(2, 3, 4)
	reg := metrics.New()
	var sum faults.Counts
	probe := roundEndFunc(func(rec *RoundRecord) {
		sum.Add(faults.Counts{
			Dropped:    int64(rec.Dropped),
			Duplicated: int64(rec.Duplicated),
			Delayed:    int64(rec.Delayed),
			Crashed:    int64(rec.Crashed),
		})
	})
	net, _ := beatBuild(10)(1)
	net.SetWorkers(2).SetFaults(plan).SetProbe(probe).SetMetrics(reg)
	if _, err := net.Run(60); err != nil {
		t.Fatal(err)
	}
	tot := plan.Totals()
	if !tot.Any() {
		t.Fatal("plan injected nothing")
	}
	if sum != tot {
		t.Errorf("probe-record sum %+v != plan totals %+v", sum, tot)
	}
	got := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	for name, want := range map[string]int64{
		"congest_msgs_dropped_total":      tot.Dropped,
		"congest_msgs_duplicated_total":   tot.Duplicated,
		"congest_msgs_delayed_total":      tot.Delayed,
		"congest_node_crash_rounds_total": tot.Crashed,
	} {
		if got[name] != want {
			t.Errorf("metrics %s = %d, want %d", name, got[name], want)
		}
	}
}

// roundEndFunc adapts a func to a Probe that only observes RoundEnd.
type roundEndFunc func(rec *RoundRecord)

func (roundEndFunc) RunStart(RunInfo)            {}
func (roundEndFunc) PhaseMark(int, int, string)  {}
func (roundEndFunc) NodeHalted(int, int)         {}
func (f roundEndFunc) RoundEnd(rec *RoundRecord) { f(rec) }
func (roundEndFunc) RunEnd(int, error)           {}

// TestCrashSemantics pins the crash contract on a concrete 3-node path:
// in-flight sends of the crashing node still deliver, messages toward the
// crashed node are dropped and counted, and the node resumes stepping
// with preserved state at its recovery round.
func TestCrashSemantics(t *testing.T) {
	g := graph.Path(3) // 0-1-2; node 1 crashes rounds 2..3, recovers at 4
	plan := faults.New(1).WithCrash(1, 2, 2)
	var stepsOf1 []int
	recvOf1 := 0
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) { ctx.Broadcast(testInt(0)) },
			step: func(ctx *Ctx, inbox []Inbound) {
				if ctx.ID() == 1 {
					stepsOf1 = append(stepsOf1, ctx.Round())
					recvOf1 += len(inbox)
				}
				if ctx.Round() >= 6 {
					ctx.Halt()
					return
				}
				ctx.Broadcast(testInt(ctx.Round()))
			},
		}
	}, rngutil.NewSource(1)).SetFaults(plan)
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	// Node 1 steps in round 1, is crashed in 2 and 3, resumes in 4.
	if want := []int{1, 4, 5, 6}; !reflect.DeepEqual(stepsOf1, want) {
		t.Fatalf("node 1 stepped in rounds %v, want %v", stepsOf1, want)
	}
	// Receives 2 in round 1, loses 2+2 while crashed (counted), then 2
	// per round once recovered (node 1's round-1 sends were in flight at
	// the crash and still delivered to 0 and 2).
	if recvOf1 != 2+3*2 {
		t.Fatalf("node 1 received %d messages, want %d", recvOf1, 2+3*2)
	}
	tot := plan.Totals()
	if tot.Dropped != 4 {
		t.Fatalf("dropped = %d, want 4 (two rounds x two neighbors)", tot.Dropped)
	}
	if tot.Crashed != 2 {
		t.Fatalf("crashed node-rounds = %d, want 2", tot.Crashed)
	}
}

// TestDelayedDeliveryOrder pins the delay contract: a delayed message is
// rolled once, delivers at its due round BEFORE that round's fresh
// messages, and blocks quiet termination while in flight.
func TestDelayedDeliveryOrder(t *testing.T) {
	g := graph.Path(2)
	// delay=1.0:2 → every message is delayed by exactly 2 rounds.
	plan := faults.New(3).WithDelay(1, 2)
	var got []string
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				if ctx.ID() == 0 {
					ctx.Send(0, Message{Kind: kindEarly})
				}
			},
			step: func(ctx *Ctx, inbox []Inbound) {
				if ctx.ID() == 1 {
					for _, in := range inbox {
						got = append(got, fmt.Sprintf("%s@%d", map[Kind]string{kindEarly: "early", kindLate: "late"}[in.Payload.Kind], ctx.Round()))
					}
				}
				if ctx.ID() == 0 && ctx.Round() == 1 {
					ctx.Send(0, Message{Kind: kindLate})
				}
			},
		}
	}, rngutil.NewSource(1)).SetFaults(plan)
	if _, err := net.RunUntilQuiet(20); err != nil {
		t.Fatal(err)
	}
	// "early" (sent in Init, would deliver round 1) arrives round 3;
	// "late" (sent round 1, would deliver round 2) arrives round 4. The
	// quiet engine must have survived the silent rounds in between.
	if want := []string{"early@3", "late@4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	if tot := plan.Totals(); tot.Delayed != 2 {
		t.Fatalf("delayed = %d, want 2", tot.Delayed)
	}
}

// TestHaltRoundSendDelivered pins the Halt-round send contract (DESIGN.md
// §3): a message Sent in the same Step that calls Halt is delivered
// exactly once, for every worker count.
func TestHaltRoundSendDelivered(t *testing.T) {
	run := func(workers int) []int {
		g := graph.Ring(8)
		received := make([]int, g.N())
		net := NewUniformNetwork(g, func(v int) Program {
			return programFunc{
				step: func(ctx *Ctx, inbox []Inbound) {
					received[ctx.ID()] += len(inbox)
					if ctx.Round() == 1 {
						// Send and halt in the same Step: the send must
						// still deliver next round, exactly once.
						ctx.Broadcast(farewell)
						ctx.Halt()
					}
				},
			}
		}, rngutil.NewSource(1)).SetWorkers(workers)
		if _, err := net.Run(6); err != nil {
			t.Fatal(err)
		}
		return received
	}
	want := run(1)
	for v, got := range want {
		// Every node halts in round 1, so its neighbors' farewells are
		// dropped at its inbox — but the sends were made, and a HALTED
		// sender's outbox must survive into the next deliver phase.
		// With everyone halting simultaneously nothing is received; use a
		// staggered variant below for the delivered-exactly-once check.
		if got != 0 {
			t.Fatalf("node %d received %d, want 0 (all halted together)", v, got)
		}
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: received %v, sequential %v", workers, got, want)
		}
	}

	// Staggered: node 0 sends+halts in round 1; node 1 stays alive and
	// must receive that farewell exactly once.
	staggered := func(workers int) []int {
		g := graph.Path(3)
		received := make([]int, g.N())
		net := NewUniformNetwork(g, func(v int) Program {
			return programFunc{
				step: func(ctx *Ctx, inbox []Inbound) {
					received[ctx.ID()] += len(inbox)
					switch {
					case ctx.ID() == 0 && ctx.Round() == 1:
						ctx.Send(0, farewell)
						ctx.Halt()
					case ctx.Round() >= 4:
						ctx.Halt()
					}
				},
			}
		}, rngutil.NewSource(1)).SetWorkers(workers)
		if _, err := net.Run(8); err != nil {
			t.Fatal(err)
		}
		return received
	}
	want = staggered(1)
	if want[1] != 1 {
		t.Fatalf("halting sender's farewell delivered %d times, want exactly 1", want[1])
	}
	for _, workers := range []int{2, 8} {
		if got := staggered(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: received %v, sequential %v", workers, got, want)
		}
	}
}

// TestEdgeLoadNoInt32Wraparound is the regression test for the int32
// per-edge load counters: with a slot already carrying MaxInt32 deliveries
// (as a long traced analytic run with duplication faults can), one more
// delivery must report MaxInt32+1, not wrap negative.
func TestEdgeLoadNoInt32Wraparound(t *testing.T) {
	g := graph.Path(2)
	var rec RoundRecord
	probe := roundEndFunc(func(r *RoundRecord) { rec = *r })
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{}
	}, rngutil.NewSource(1)).SetProbe(probe)
	net.probeRunStart()
	net.agg.edgeLoad[0] = math.MaxInt32 // accumulated load of edge 0 toward node 0...
	net.rounds = 1
	net.inboxes[0] = append(net.inboxes[0][:0], Inbound{Port: 0, From: 1, Payload: ping})
	net.inboxes[1] = net.inboxes[1][:0]
	net.probeRoundFlush(1, 2, 0, faults.Counts{})
	if want := int64(math.MaxInt32) + 1; rec.MaxEdgeLoad != want {
		t.Fatalf("MaxEdgeLoad = %d, want %d (old int32 counter wrapped negative)", rec.MaxEdgeLoad, want)
	}
}

// TestQuietWaitsForCrashRecovery: the quiet rule must not end a run while
// a crashed node is due to recover. Node 1 receives a token in round 1 and
// would forward it in its next step, but it is crashed in rounds 2..4; the
// network is silent meanwhile, and only the recovery round 5 forwards the
// token, which node 2 receives in round 6 — the run's last, after which
// the quiet rule ends it.
func TestQuietWaitsForCrashRecovery(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pending := false
		got := 0
		net := NewUniformNetwork(graph.Path(3), func(v int) Program {
			return programFunc{
				init: func(ctx *Ctx) {
					if ctx.ID() == 0 {
						ctx.Send(0, ping)
					}
				},
				step: func(ctx *Ctx, inbox []Inbound) {
					switch ctx.ID() {
					case 1:
						if len(inbox) > 0 {
							pending = true
							return // forward on NEXT step (queued state)
						}
						if pending {
							pending = false
							ctx.Send(1, ping) // toward node 2
						}
					case 2:
						got += len(inbox)
					}
				},
			}
		}, rngutil.NewSource(1)).SetFaults(faults.New(1).WithCrash(1, 2, 3)).SetWorkers(workers)
		rounds, err := net.RunUntilQuiet(50)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != 6 || got != 1 {
			t.Fatalf("workers=%d: %d rounds, node 2 received %d tokens; want 6 rounds and 1 token", workers, rounds, got)
		}
	}
}

// TestQuietRound is the quiet rule's table: a round that delivered
// nothing ends a quiet run unless it is round 0, something is delayed or a
// crashed node is still due to recover.
func TestQuietRound(t *testing.T) {
	recovering := faults.New(1).WithCrash(0, 2, 3) // crashed in rounds 2..4, steps again in 5
	for _, c := range []struct {
		name                      string
		round, delivered, pending int
		plan                      *faults.Plan
		want                      bool
	}{
		{"round 0", 0, 0, 0, nil, false},
		{"a delivery", 3, 1, 0, nil, false},
		{"a pending delayed message", 3, 0, 1, faults.New(1), false},
		{"a crashed node due to recover after the round", 3, 0, 0, recovering, false},
		{"the crashed node recovered", 5, 0, 0, recovering, true},
		{"a nil plan", 3, 0, 0, nil, true},
	} {
		if got := QuietRound(c.round, c.delivered, c.pending, c.plan); got != c.want {
			t.Errorf("%s: QuietRound(%d, %d, %d) = %v, want %v", c.name, c.round, c.delivered, c.pending, got, c.want)
		}
	}
}
