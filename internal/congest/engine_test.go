package congest

// Differential equivalence suite: every bundled node program is executed
// as one part (the sequential reference engine), as 2 and 8 pooled parts,
// and as 2 and 3 Shards over separate replicas exchanging their boundary
// sends in memory, and every execution must agree with the first bit for
// bit — same round count, same total message count, same per-node final
// state, same probe event stream. Determinism is the measurement contract
// of the whole repo (round counts ARE the experimental results), so any
// divergence here is a correctness bug, not a flake.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var diffSeeds = []uint64{1, 7, 42}

// diffScenario builds one program-under-test: build returns a fresh
// network plus a closure extracting the observable per-node final state.
// A non-empty spec attaches a fault plan, parsed afresh from (spec, seed)
// for every replica of every execution.
type diffScenario struct {
	name      string
	spec      string
	quiet     bool
	maxRounds int
	build     func(seed uint64) (*Network, func() any)
}

// noErr is how an execution records a nil error.
const noErr = "<nil>"

// execution is everything a differential scenario observes of one run.
// Faulty runs may legitimately end in ErrRoundLimit (a permanently crashed
// node never halts), so the error is part of what is compared.
type execution struct {
	rounds, msgs int
	err          string
	state        any
	events       []string
	faults       faults.Counts
}

// executor runs a scenario to completion one way. plan returns a fresh
// fault plan per replica (nil plan = fault-free).
type executor struct {
	name string
	run  func(sc diffScenario, seed uint64, plan func() *faults.Plan) execution
}

// diffExecutors[0] is the reference every other executor is compared to.
var diffExecutors = []executor{
	onWorkers(1), onWorkers(2), onWorkers(8), onShards(2), onShards(3),
}

// onWorkers runs the scenario on the in-process engine with w parts.
func onWorkers(w int) executor {
	return executor{fmt.Sprintf("workers %d", w), func(sc diffScenario, seed uint64, plan func() *faults.Plan) execution {
		net, state := sc.build(seed)
		p, probe := plan(), &recordingProbe{}
		net.SetWorkers(w).SetFaults(p).SetProbe(probe)
		run := net.Run
		if sc.quiet {
			run = net.RunUntilQuiet
		}
		rounds, err := run(sc.maxRounds)
		ex := execution{rounds: rounds, msgs: net.Messages(), err: fmt.Sprint(err), state: state(), events: probe.events}
		if p != nil {
			ex.faults = p.Totals()
		}
		return ex
	}}
}

// onShards runs the scenario on k Shards, each over its own replica from
// the same build(seed), under the coordinator loop the TCP backend runs —
// minus the wire: each shard's sends are taken off its crossing list
// toward each other shard and staged on that shard's list from it, at the
// same index, as a peer frame carries them, with no codec in between.
// Events and inbox profiles are replayed in shard (= node) order into the
// same recordingProbe through a RoundAggregator, the final state is each
// replica's read over its own range, and the fault totals are the shards'
// per-round counts summed.
func onShards(k int) executor {
	return executor{fmt.Sprintf("shards %d", k), func(sc diffScenario, seed uint64, plan func() *faults.Plan) execution {
		var (
			shards []*Shard
			states []func() any
			split  Split
			g      *graph.Graph
			quietP *faults.Plan // any replica's plan answers the recovery rule
		)
		for i := 0; i < k; i++ {
			net, state := sc.build(seed)
			g, split = net.Graph(), Split{N: net.Graph().N(), K: k}
			quietP = plan()
			net.SetFaults(quietP)
			s, err := NewShard(net, split, i)
			if err != nil {
				panic(err)
			}
			shards, states = append(shards, s), append(states, state)
		}
		probe, agg := &recordingProbe{}, NewRoundAggregator(g)
		probe.RunStart(RunInfo{Nodes: g.N(), Edges: g.M()})
		// barrier closes Init or a Step: drain events, count halted nodes,
		// relay every crossing send to the shard that owns its receiver.
		barrier := func() (halted int) {
			for i, s := range shards {
				s.DrainEvents(probe.PhaseMark, probe.NodeHalted)
				halted += s.HaltedCount()
				for j, peer := range shards {
					if j == i {
						continue
					}
					out, in := s.Outbound(j), peer.Inbound(i)
					for k := range out.Len() {
						if m := out.Take(k); m.Kind != 0 {
							if err := in.Stage(k, m); err != nil {
								panic(err)
							}
						}
					}
				}
			}
			return halted
		}
		for _, s := range shards {
			s.Init()
		}
		halted := barrier()
		var ex execution
		quietEnd := false
		for r := 0; r < sc.maxRounds && halted < g.N(); r++ {
			delivered, pending := 0, 0
			for _, s := range shards {
				delivered += s.Deliver()
				pending += s.PendingDelayed()
				for u, hi := s.Nodes(); u < hi; u++ {
					for _, in := range s.Inbox(u) {
						agg.Deliver(u, int(in.Port))
					}
				}
			}
			if sc.quiet && r > 0 && delivered == 0 && pending == 0 && (quietP == nil || quietP.QuietAfter(ex.rounds)) {
				quietEnd = true
				break
			}
			ex.rounds++
			active := 0
			var fc faults.Counts
			for _, s := range shards {
				a, _ := s.Step()
				active += a
				fc.Add(s.FaultCounts())
			}
			ex.faults.Add(fc)
			halted = barrier()
			agg.RoundEnd(probe, ex.rounds, delivered, active, halted, fc)
		}
		var err error
		if halted < g.N() && !quietEnd {
			err = fmt.Errorf("after %d rounds: %w", ex.rounds, ErrRoundLimit)
		}
		probe.RunEnd(ex.rounds, err)
		ex.err, ex.events = fmt.Sprint(err), probe.events
		ex.state = states[0]()
		for i, s := range shards {
			ex.msgs += s.Messages()
			lo, hi := s.Nodes()
			overlayOwned(reflect.ValueOf(ex.state), reflect.ValueOf(states[i]()), lo, hi)
		}
		return ex
	}}
}

// overlayOwned copies src's entries [lo, hi) over dst's. Scenarios keep
// their final state in node-indexed slices (bare, or as struct fields),
// and a replica only runs — so only writes — the nodes its shard owns.
func overlayOwned(dst, src reflect.Value, lo, hi int) {
	switch dst.Kind() {
	case reflect.Slice:
		reflect.Copy(dst.Slice(lo, hi), src.Slice(lo, hi))
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			overlayOwned(dst.Field(i), src.Field(i), lo, hi)
		}
	}
}

// runDifferential runs the scenario on every executor, once per seed, and
// reports every observable — rounds, error, messages, final state, probe
// event stream, fault totals — that diverges from the reference's.
func runDifferential(t *testing.T, sc diffScenario) {
	t.Helper()
	seeds := diffSeeds
	if testing.Short() {
		seeds = seeds[:1] // keep the race-instrumented CI run fast
	}
	for _, seed := range seeds {
		want, diffs := differences(sc, seed, specPlan(t, sc, seed))
		if sc.spec == "" && want.err != noErr {
			t.Fatalf("%s seed %d: %s: %s", sc.name, seed, diffExecutors[0].name, want.err)
		}
		if sc.spec != "" && want.err == noErr && !want.faults.Any() {
			t.Errorf("%s seed %d: scenario injected no faults — not exercising the layer", sc.name, seed)
		}
		for _, d := range diffs {
			t.Error(d)
		}
	}
}

// specPlan returns the fault plans of the scenario's spec at seed, one
// fresh plan per call (nil when the spec is empty).
func specPlan(t *testing.T, sc diffScenario, seed uint64) func() *faults.Plan {
	return func() *faults.Plan {
		if sc.spec == "" {
			return nil
		}
		p, err := faults.Parse(sc.spec, seed*2654435761+1)
		if err != nil {
			t.Fatalf("%s: spec %q: %v", sc.name, sc.spec, err)
		}
		return p
	}
}

// differences runs the scenario at one seed on every executor and returns
// the reference execution and every way another one diverges from it.
func differences(sc diffScenario, seed uint64, plan func() *faults.Plan) (want execution, diffs []string) {
	want = diffExecutors[0].run(sc, seed, plan)
	for _, ex := range diffExecutors[1:] {
		got := ex.run(sc, seed, plan)
		where := fmt.Sprintf("%s seed %d %s", sc.name, seed, ex.name)
		if got.rounds != want.rounds || got.err != want.err {
			diffs = append(diffs, fmt.Sprintf("%s: (rounds=%d err=%s) diverges from reference (rounds=%d err=%s)",
				where, got.rounds, got.err, want.rounds, want.err))
		}
		if got.msgs != want.msgs {
			diffs = append(diffs, fmt.Sprintf("%s: messages %d, reference %d", where, got.msgs, want.msgs))
		}
		if !reflect.DeepEqual(got.state, want.state) {
			diffs = append(diffs, fmt.Sprintf("%s: final state diverges from reference", where))
		}
		// The probe contract: the full event stream — every round record
		// (including the borrowed per-node and per-edge slices), every
		// mark, every halt — is bit-identical however the network is
		// partitioned.
		if !reflect.DeepEqual(got.events, want.events) {
			diffs = append(diffs, fmt.Sprintf("%s: probe event stream diverges from reference (%d vs %d events)",
				where, len(got.events), len(want.events)))
		}
		if got.faults != want.faults {
			diffs = append(diffs, fmt.Sprintf("%s: fault totals %+v, reference %+v", where, got.faults, want.faults))
		}
	}
	return want, diffs
}

// diffGraph varies the topology with the seed so the suite does not
// overfit one port layout.
func diffGraph(seed uint64) *graph.Graph {
	r := rngutil.NewRand(seed)
	switch seed % 3 {
	case 0:
		return graph.RandomRegular(48, 4, r)
	case 1:
		g, err := graph.ConnectedGnp(40, 0.15, r)
		if err != nil {
			panic(err)
		}
		return g
	default:
		return graph.Lollipop(16, 10)
	}
}

func TestDifferentialBFS(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "bfs",
		quiet:     true,
		maxRounds: 200,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			res := &BFSResult{
				Root:   0,
				Parent: make([]int, g.N()),
				Dist:   make([]int, g.N()),
			}
			net := NewUniformNetwork(g, func(v int) Program {
				return &bfsProgram{root: v == 0, res: res}
			}, rngutil.NewSource(seed))
			return net, func() any { return *res }
		},
	})
}

func TestDifferentialBroadcast(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "broadcast",
		quiet:     true,
		maxRounds: 200,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			values := make([]Message, g.N())
			net := NewUniformNetwork(g, func(v int) Program {
				return &floodProgram{root: v == 0, value: Message{Kind: kindFlood, W: seed}, out: values}
			}, rngutil.NewSource(seed))
			return net, func() any { return values }
		},
	})
}

func TestDifferentialLeaderElection(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "leader",
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

func TestDifferentialConvergecast(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "convergecast",
		quiet:     false,
		maxRounds: 200,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			tree, _, err := BFS(g, 0, rngutil.NewSource(seed))
			if err != nil {
				panic(err)
			}
			values := make([]float64, g.N())
			for v := range values {
				values[v] = float64(v + 1)
			}
			totals := make([]float64, g.N())
			net := NewUniformNetwork(g, func(v int) Program {
				return &sumProgram{tree: tree, depth: tree.Depth(), value: values[v], totals: totals}
			}, rngutil.NewSource(seed+1))
			return net, func() any { return totals }
		},
	})
}

// TestDifferentialProbeEvents drives the probe event paths hard: every
// node marks phases each round and the nodes halt in staggered waves, so
// the per-round drain of sharded marks and halt flags is exercised on
// every worker count (the stream equality is asserted by runDifferential).
func TestDifferentialProbeEvents(t *testing.T) {
	runDifferential(t, diffScenario{
		name:      "probe-events",
		quiet:     false,
		maxRounds: 60,
		build: func(seed uint64) (*Network, func() any) {
			g := diffGraph(seed)
			final := make([]int, g.N())
			net := NewUniformNetwork(g, func(v int) Program {
				return programFunc{
					init: func(ctx *Ctx) {
						ctx.Mark("boot")
						ctx.Broadcast(testInt(0))
					},
					step: func(ctx *Ctx, inbox []Inbound) {
						if ctx.Round()%3 == ctx.ID()%3 {
							ctx.Mark("beat")
						}
						if ctx.Round() >= 3+ctx.ID()%7 {
							final[ctx.ID()] = ctx.Round()
							ctx.Halt()
							return
						}
						ctx.Broadcast(testInt(ctx.Round()))
					},
				}
			}, rngutil.NewSource(seed))
			return net, func() any { return final }
		},
	})
}

// TestSplitOwnerInvertsBounds: the parts tile [0, n) in order, and Owner —
// the closed form a TCP shard picks the peer for each boundary send by —
// is the inverse of Bounds, also when k > n leaves some parts empty.
func TestSplitOwnerInvertsBounds(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= n+3; k++ {
			split, next := Split{N: n, K: k}, 0
			for i := 0; i < k; i++ {
				lo, hi := split.Bounds(i)
				if lo != next || hi < lo {
					t.Fatalf("n=%d k=%d: part %d = [%d, %d), want it to start at %d", n, k, i, lo, hi, next)
				}
				next = hi
				for v := lo; v < hi; v++ {
					if got := split.Owner(v); got != i {
						t.Fatalf("n=%d k=%d: Owner(%d) = %d, want %d", n, k, v, got, i)
					}
				}
			}
			if next != n {
				t.Fatalf("n=%d k=%d: parts end at %d", n, k, next)
			}
		}
	}
}

// TestParallelMessagesAccounting checks the sharded per-node accounting
// against the known message total of a one-round broadcast.
func TestParallelMessagesAccounting(t *testing.T) {
	g := graph.Ring(9)
	received := make([]int, g.N())
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) { ctx.Broadcast(ping) },
			step: func(ctx *Ctx, inbox []Inbound) {
				received[ctx.ID()] = len(inbox)
				ctx.Halt()
			},
		}
	}, rngutil.NewSource(3))
	if _, err := net.SetWorkers(4).Run(10); err != nil {
		t.Fatal(err)
	}
	if net.Messages() != 2*g.M() {
		t.Fatalf("Messages() = %d, want %d", net.Messages(), 2*g.M())
	}
	for v, got := range received {
		if got != 2 {
			t.Fatalf("node %d received %d messages, want 2", v, got)
		}
	}
}

// TestParallelPanicPropagates ensures a program panic inside a worker
// reaches the caller, matching sequential semantics.
func TestParallelPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double send on one port did not panic through the pool")
		}
	}()
	g := graph.Ring(6)
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{step: func(ctx *Ctx, _ []Inbound) {
			ctx.Send(0, testInt(1))
			ctx.Send(0, testInt(2))
		}}
	}, rngutil.NewSource(1))
	_, _ = net.SetWorkers(4).Run(3)
}

// TestEveryPartPanics: when every node panics with its ID in the same
// step, every part panics in one phase; the caller waits for all of them
// and exactly one panic reaches it — the first in part order, node 0's.
func TestEveryPartPanics(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		func() {
			defer func() {
				if r := recover(); r != 0 {
					t.Fatalf("workers=%d: caller got panic %v, want node 0's", workers, r)
				}
			}()
			net := NewUniformNetwork(graph.Ring(16), func(v int) Program {
				return programFunc{step: func(ctx *Ctx, _ []Inbound) { panic(ctx.ID()) }}
			}, rngutil.NewSource(1))
			_, _ = net.SetWorkers(workers).Run(3)
		}()
	}
}

// TestPartGoroutinesEnd: the goroutines of a run's parts are gone once Run
// returns, whether it halts, hits the round limit or re-raises a panic.
func TestPartGoroutinesEnd(t *testing.T) {
	exits := []struct {
		name   string
		rounds int
		step   func(*Ctx, []Inbound)
	}{
		{"halt", 5, func(ctx *Ctx, _ []Inbound) { ctx.Halt() }},
		{"round limit", 3, func(ctx *Ctx, _ []Inbound) {}},
		{"panic", 5, func(ctx *Ctx, _ []Inbound) { panic("step") }},
	}
	for _, workers := range []int{2, 8} {
		for _, exit := range exits {
			before := settledGoroutines()
			func() {
				defer func() { _ = recover() }()
				net := NewUniformNetwork(graph.Ring(16), func(v int) Program {
					return programFunc{step: exit.step}
				}, rngutil.NewSource(1))
				_, _ = net.SetWorkers(workers).Run(exit.rounds)
			}()
			// A part goroutine has reported its end before Run returns; give
			// the last instructions of its exit a moment to retire.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got != before {
				t.Fatalf("workers=%d, %s: %d goroutines after Run, %d before", workers, exit.name, got, before)
			}
		}
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for ten consecutive samples a millisecond apart (or after five
// seconds), so a goroutine an earlier test left still exiting is not
// counted as one a run must leave behind.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestSetWorkersSelectsEngine checks the RunUntilQuiet engine option: a
// quiet-terminated program gives identical results through the option
// path.
func TestSetWorkersSelectsEngine(t *testing.T) {
	run := func(workers int) (int, int, []int) {
		g := graph.Grid(6, 6)
		result := make([]int, g.N())
		net := NewUniformNetwork(g, func(v int) Program {
			return &leaderProgram{result: result}
		}, rngutil.NewSource(11)).SetWorkers(workers)
		rounds, err := net.RunUntilQuiet(500)
		if err != nil {
			t.Fatal(err)
		}
		return rounds, net.Messages(), result
	}
	seqRounds, seqMsgs, seqState := run(1)
	for _, workers := range []int{2, 8} {
		rounds, msgs, state := run(workers)
		if rounds != seqRounds || msgs != seqMsgs || !reflect.DeepEqual(state, seqState) {
			t.Fatalf("workers=%d: (rounds=%d msgs=%d) diverges from sequential (rounds=%d msgs=%d)",
				workers, rounds, msgs, seqRounds, seqMsgs)
		}
	}
}
