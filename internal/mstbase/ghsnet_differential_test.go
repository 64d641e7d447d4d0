package mstbase

// Differential equivalence of the full-fidelity GHS node program across
// simulator engines: the tree, the measured rounds and the message total
// must be bit-identical between one part and several, for every worker
// count, and between runs that skip each window's idle tail and a run that
// steps every round. GHS is the most state-heavy program in the repo (five
// message types, event-driven phases, adoption waves), so it is the
// strongest single witness that partitioning and skipping preserve program
// semantics.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/rngutil"
)

// ghsTrace runs the GHS node program with the bundled trace sink attached
// and returns the exported JSON bytes.
func ghsTrace(t *testing.T, g *graph.Graph, seed uint64, workers int) ([]byte, *Result) {
	t.Helper()
	sink := congest.NewTraceSink().Label("ghs")
	res, err := GHSNetwork(g, rngutil.NewSource(seed), congest.Options{Workers: workers, Probe: sink})
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestGHSNetworkDifferential(t *testing.T) {
	seeds := []uint64{3, 11, 29}
	if testing.Short() {
		seeds = seeds[:1] // keep the race-instrumented CI run fast
	}
	for _, seed := range seeds {
		r := rngutil.NewRand(seed)
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = graph.RandomRegular(32, 4, r)
		case 1:
			g = graph.Grid(6, 5)
		default:
			g = graph.Lollipop(12, 8)
		}
		g.AssignDistinctRandomWeights(r)

		refTrace, ref := ghsTrace(t, g, seed, 1)
		_, wantWeight := Kruskal(g)
		if ref.Weight != wantWeight {
			t.Fatalf("seed %d: sequential GHS weight %v, Kruskal %v", seed, ref.Weight, wantWeight)
		}
		refEdges := append([]int(nil), ref.Edges...)
		sort.Ints(refEdges)

		for _, workers := range []int{1, 2, 8} {
			gotTrace, got := ghsTrace(t, g, seed, workers)
			gotEdges := append([]int(nil), got.Edges...)
			sort.Ints(gotEdges)
			if got.Rounds != ref.Rounds || got.Weight != ref.Weight ||
				!reflect.DeepEqual(gotEdges, refEdges) {
				t.Errorf("seed %d workers %d: (rounds=%d weight=%v) diverges from sequential (rounds=%d weight=%v)",
					seed, workers, got.Rounds, got.Weight, ref.Rounds, ref.Weight)
			}
			// The exported trace is part of the measured results, so it
			// must be byte-identical across engines and worker counts.
			if !bytes.Equal(gotTrace, refTrace) {
				t.Errorf("seed %d workers %d: exported trace diverges from sequential (%d vs %d bytes)",
					seed, workers, len(gotTrace), len(refTrace))
			}
		}
	}
}

// wakeful steps a program with its sleep promises withdrawn: every Step
// ends by promising nothing, so the engine steps every round — the
// never-skipping reference the sleeping GHS is compared to.
type wakeful struct{ congest.Program }

func (w wakeful) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	w.Program.Step(ctx, inbox)
	ctx.SleepUntil(0)
}

// ghsSleepRun runs GHS on g under the fault spec (empty: none) and returns
// the exported trace, the run's rounds, error, tree and fault totals as
// one comparable string, and the rounds the engine skipped.
func ghsSleepRun(t *testing.T, g *graph.Graph, spec string, workers int, sleep bool) ([]byte, string, int64) {
	t.Helper()
	var plan *faults.Plan
	if spec != "" {
		var err error
		if plan, err = faults.Parse(spec, 5); err != nil {
			t.Fatal(err)
		}
	}
	programs, maxRounds := GHSPrograms(g, plan)
	run := programs
	if !sleep {
		run = make([]congest.Program, len(programs))
		for v, p := range programs {
			run[v] = wakeful{p}
		}
	}
	sink, reg := congest.NewTraceSink().Label("ghs"), metrics.New()
	net := congest.NewNetwork(g, run, rngutil.NewSource(17)).
		Configure(congest.Options{Workers: workers, Probe: sink, Metrics: reg, Faults: plan})
	rounds, err := net.Run(maxRounds)
	edges := GHSTreeEdges(g.M(), GHSChosenEdges(programs, 0, g.N()))
	sort.Ints(edges)
	var totals faults.Counts
	if plan != nil {
		totals = plan.Totals()
	}
	var buf bytes.Buffer
	if err := sink.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	skipped, _ := reg.Snapshot().Counter("congest_rounds_skipped_total")
	return buf.Bytes(), fmt.Sprintf("rounds=%d msgs=%d err=%v edges=%v faults=%+v", rounds, net.Messages(), err, edges, totals), skipped
}

// TestGHSSleepDifferential: GHS sleeps to the next window boundary
// whenever it has nothing queued, and the engines skip the rounds that
// leaves idle. Every worker count must reproduce, byte for byte, the run
// that steps every round — fault-free, with a node crashed across a window
// boundary (n = 16: windows of 54 rounds, boundaries at 55, 109, …), and
// with delays of 40 rounds, so a message delayed after a window's first 14
// rounds lands in the next window and the window stamp discards it; a
// skip waits until no delayed message is in flight.
func TestGHSSleepDifferential(t *testing.T) {
	g := graph.RandomRegular(16, 4, rngutil.NewRand(8))
	g.AssignDistinctRandomWeights(rngutil.NewRand(8))
	for _, spec := range []string{"", "crash=5@50+12", "crash=3@100+20,drop=0.02", "delay=0.1:40"} {
		t.Run("faults="+spec, func(t *testing.T) {
			wantTrace, want, _ := ghsSleepRun(t, g, spec, 1, false)
			for _, workers := range []int{1, 2, 8} {
				gotTrace, got, skipped := ghsSleepRun(t, g, spec, workers, true)
				if got != want {
					t.Errorf("workers %d: %s, stepping every round: %s", workers, got, want)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("workers %d: trace diverges from stepping every round (%d vs %d bytes)", workers, len(gotTrace), len(wantTrace))
				}
				if skipped == 0 {
					t.Errorf("workers %d: no round skipped", workers)
				}
			}
		})
	}
}

// TestSteadyRoundsZeroAlloc is the GHS program's row of the engine's
// zero-alloc gate (congest.TestSteadyRoundsZeroAlloc holds the ticker
// rows): n = 64, so a window is 198 rounds, and the measured span —
// rounds 396 to 792, the third and fourth windows — covers two boundaries
// (scratch reset in place, fragment IDs to every neighbor) and two full
// convergecast / downcast / merge / adoption sequences. Fault-free, and
// under drop = 0.1 (the ghs-stamped rows), where stalled windows retry. What may
// still allocate is append growth of a node's pending-send and
// chosen-edge slices, both retained: a few tenths of an allocation per
// round at most, against one per message before the payloads were records.
func TestSteadyRoundsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RandomRegular(64, 4, rngutil.NewRand(23))
	g.AssignDistinctRandomWeights(rngutil.NewRand(23))
	rounds := 2 * ghsWindow(g.N())
	for _, spec := range []string{"", "drop=0.1"} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("ghs/workers=%d", workers)
			if spec != "" {
				name = fmt.Sprintf("ghs-stamped/%s/workers=%d", spec, workers)
			}
			t.Run(name, func(t *testing.T) {
				per := congest.MeasureSteadyAllocs(func() *congest.Network {
					var plan *faults.Plan // nil: the fault-free delivery path
					if spec != "" {
						var err error
						if plan, err = faults.Parse(spec, 99); err != nil {
							t.Fatal(err)
						}
					}
					programs, _ := GHSPrograms(g, plan)
					return congest.NewNetwork(g, programs, rngutil.NewSource(23)).SetWorkers(workers).SetFaults(plan)
				}, rounds)
				if per >= congest.SteadyAllocNoiseFloor {
					t.Fatalf("steady GHS round allocates: %.3f allocs/round, want 0 (< %.1f)", per, congest.SteadyAllocNoiseFloor)
				}
				t.Logf("%.3f allocs/round", per)
			})
		}
	}
}

// stepCounter counts the Step calls of the program it wraps, by round;
// the parts of a run step concurrently, so the counts are atomic.
type stepCounter struct {
	congest.Program
	calls []atomic.Int64
}

func (s stepCounter) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	s.calls[ctx.Round()].Add(1)
	s.Program.Step(ctx, inbox)
}

// activeProbe keeps every round record's Active, by round.
type activeProbe struct {
	congest.NopProbe
	active map[int]int
}

func (p *activeProbe) RoundEnd(rec *congest.RoundRecord) { p.active[rec.Round] = rec.Active }

// TestGHSNodeStepsMetric: congest_node_steps_total is the number of Step
// calls a run made, the sum of Active over its executed rounds — not over
// the rounds the skip rule jumped, whose records report the no-op steps
// they replace. GHS sleeps through most of each window, so the two sums
// differ; the rounds in which any node stepped are exactly the executed
// ones, for every worker count, fault-free and with a crash.
func TestGHSNodeStepsMetric(t *testing.T) {
	g := graph.RandomRegular(16, 4, rngutil.NewRand(8))
	g.AssignDistinctRandomWeights(rngutil.NewRand(8))
	for _, spec := range []string{"", "crash=5@50+12"} {
		var plan *faults.Plan
		if spec != "" {
			var err error
			if plan, err = faults.Parse(spec, 5); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			programs, maxRounds := GHSPrograms(g, plan)
			calls := make([]atomic.Int64, maxRounds+1)
			counted := make([]congest.Program, len(programs))
			for v, p := range programs {
				counted[v] = stepCounter{p, calls}
			}
			probe, reg := &activeProbe{active: map[int]int{}}, metrics.New()
			net := congest.NewNetwork(g, counted, rngutil.NewSource(17)).
				Configure(congest.Options{Workers: workers, Probe: probe, Metrics: reg, Faults: plan})
			rounds, err := net.Run(maxRounds)
			if err != nil {
				t.Fatalf("faults %q, workers %d: %v", spec, workers, err)
			}
			snap := reg.Snapshot()
			steps, ok := snap.Counter("congest_node_steps_total")
			skipped, _ := snap.Counter("congest_rounds_skipped_total")
			var stepped, executed, allActive int64
			for r := 1; r <= rounds; r++ {
				allActive += int64(probe.active[r])
				if c := calls[r].Load(); c > 0 {
					executed++
					stepped += c
					if int64(probe.active[r]) != c {
						t.Errorf("faults %q, workers %d, round %d: Active %d, %d Step calls", spec, workers, r, probe.active[r], c)
					}
				}
			}
			switch {
			case !ok || steps != stepped:
				t.Errorf("faults %q, workers %d: congest_node_steps_total %d (registered %v), want the %d Step calls", spec, workers, steps, ok, stepped)
			case executed != int64(rounds)-skipped:
				t.Errorf("faults %q, workers %d: nodes stepped in %d rounds, the engine executed %d", spec, workers, executed, int64(rounds)-skipped)
			case skipped == 0 || steps >= allActive:
				t.Errorf("faults %q, workers %d: %d rounds skipped, %d steps of %d Active over every round: the skipped rounds are untested", spec, workers, skipped, steps, allActive)
			}
		}
	}
}
