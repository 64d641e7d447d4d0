package randomwalk

// Tests for the node-program walk workload: conservation invariants, and
// differential equivalence between the sequential and parallel simulator
// engines — the walk workload exercises heavy per-round traffic on every
// edge, the opposite load shape from GHS's sparse event-driven phases.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func TestRunNetworkConservesTokens(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(5))
	counts := make([]int, g.N())
	total := 0
	for v := range counts {
		counts[v] = v % 3
		total += counts[v]
	}
	const steps = 12
	res, err := RunNetwork(g, counts, steps, rngutil.NewSource(5), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	arrived := 0
	for _, c := range res.ArrivedAt {
		arrived += c
	}
	if arrived != total {
		t.Fatalf("arrived %d tokens, started %d", arrived, total)
	}
	// Every token makes exactly steps hops on a graph with no isolated
	// nodes, and each hop is one message.
	if res.Messages != total*steps {
		t.Fatalf("messages = %d, want %d", res.Messages, total*steps)
	}
	if res.Rounds < steps {
		t.Fatalf("rounds = %d, below the contention-free floor %d", res.Rounds, steps)
	}
}

func TestRunNetworkZeroSteps(t *testing.T) {
	g := graph.Ring(8)
	counts := []int{2, 0, 0, 0, 0, 0, 0, 1}
	res, err := RunNetwork(g, counts, 0, rngutil.NewSource(1), congest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ArrivedAt, []int{2, 0, 0, 0, 0, 0, 0, 1}) {
		t.Fatalf("zero-step tokens moved: %v", res.ArrivedAt)
	}
	if res.Messages != 0 {
		t.Fatalf("zero-step walk sent %d messages", res.Messages)
	}
}

func TestRunNetworkDifferential(t *testing.T) {
	seeds := []uint64{2, 13, 31}
	if testing.Short() {
		seeds = seeds[:1] // keep the race-instrumented CI run fast
	}
	for _, seed := range seeds {
		g := graph.RandomRegular(96, 6, rngutil.NewRand(seed))
		counts := UniformCountTimesDegree(g, 1)
		const steps = 10
		ref, err := RunNetwork(g, counts, steps, rngutil.NewSource(seed), congest.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := RunNetwork(g, counts, steps, rngutil.NewSource(seed), congest.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if got.Rounds != ref.Rounds || got.Messages != ref.Messages ||
				!reflect.DeepEqual(got.ArrivedAt, ref.ArrivedAt) {
				t.Errorf("seed %d workers %d: (rounds=%d msgs=%d) diverges from sequential (rounds=%d msgs=%d)",
					seed, workers, got.Rounds, got.Messages, ref.Rounds, ref.Messages)
			}
		}
	}
}

// TestSteadyRoundsZeroAlloc is the walk programs' row of the engine's
// zero-alloc gate (congest.TestSteadyRoundsZeroAlloc holds the ticker
// rows): with steps far beyond the measured window every token is in
// flight throughout, so each round every node receives, draws, queues and
// sends. Sends copy records into the arena and a node's token pool is
// retained, so the one thing left that allocates is a pool doubling when a
// node's backlog sets a new record — at most a handful per node, ever (the
// pools start with room for the node's own tokens and one round of
// arrivals, 16 at 8 tokens per node, and a backlog past 32 is vanishingly
// rare), thinning out as the run ages. Measured on this input, both
// worker counts: 0.25 allocs/round over rounds 256–512 — against ≥ 2048
// per round for one allocation per message. The row gates that window:
// integer zero on the noise-floor scale with a factor two to spare, in
// just over a second.
func TestSteadyRoundsZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("differential alloc measurement is not -short")
	}
	g := graph.RandomRegular(256, 8, rngutil.NewRand(17))
	counts := UniformCountTimesDegree(g, 1)
	const rounds, steps = 256, 1 << 20
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("walks/workers=%d", workers), func(t *testing.T) {
			per := congest.MeasureSteadyAllocs(func() *congest.Network {
				programs, _, _, _ := WalkPrograms(g, counts, nil, steps, nil)
				return congest.NewNetwork(g, programs, rngutil.NewSource(17)).SetWorkers(workers)
			}, rounds)
			if per >= congest.SteadyAllocNoiseFloor {
				t.Fatalf("steady walk round allocates: %.3f allocs/round, want 0 (< %.1f)", per, congest.SteadyAllocNoiseFloor)
			}
			t.Logf("%.3f allocs/round", per)
		})
	}
}

// refWalkNode is the reference walk program: the same tokens, draws and
// per-port FIFOs as walkNode, written the plain way — head[p] and tail[p]
// delimit port p's queue (head −1 = empty), the pool starts empty and
// grows by append, and flush tests every port. walkNode must reproduce
// it exactly: same sends in the same rounds, same arrivals, same
// absorptions.
type refWalkNode struct {
	steps   int
	counts  []int
	arrived []int

	pool       []walkSlot
	head, tail []int32
	free       int32

	seqBase  []int
	absorbed [][]WalkTokenID
}

func (p *refWalkNode) Init(ctx *congest.Ctx) {
	p.head, p.tail = make([]int32, ctx.Degree()), make([]int32, ctx.Degree())
	for port := range p.head {
		p.head[port] = -1
	}
	p.free = -1
	base := 0
	if p.seqBase != nil {
		base = p.seqBase[ctx.ID()]
	}
	for i := 0; i < p.counts[ctx.ID()]; i++ {
		p.route(ctx, walkToken{Left: int32(p.steps), Origin: int32(ctx.ID()), Seq: int32(base + i)})
	}
	p.flush(ctx)
}

func (p *refWalkNode) route(ctx *congest.Ctx, tok walkToken) {
	if tok.Left == 0 || ctx.Degree() == 0 {
		p.arrived[ctx.ID()]++
		if p.absorbed != nil {
			p.absorbed[ctx.ID()] = append(p.absorbed[ctx.ID()], WalkTokenID{tok.Origin, tok.Seq})
		}
		return
	}
	port := ctx.Rand().IntN(ctx.Degree())
	tok.Left--
	slot := p.free
	if slot >= 0 {
		p.free = p.pool[slot].next
		p.pool[slot] = walkSlot{tok: tok, next: -1}
	} else {
		slot = int32(len(p.pool))
		p.pool = append(p.pool, walkSlot{tok: tok, next: -1})
	}
	if p.head[port] < 0 {
		p.head[port] = slot
	} else {
		p.pool[p.tail[port]].next = slot
	}
	p.tail[port] = slot
}

func (p *refWalkNode) flush(ctx *congest.Ctx) {
	for port, slot := range p.head {
		if slot < 0 {
			continue
		}
		ctx.Send(port, p.pool[slot].tok.message())
		p.head[port] = p.pool[slot].next
		p.pool[slot].next = p.free
		p.free = slot
	}
}

func (p *refWalkNode) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	for _, in := range inbox {
		p.route(ctx, walkTokenOf(in.Payload))
	}
	p.flush(ctx)
}

// recordProbe keeps a deep copy of every round record.
type recordProbe struct {
	congest.NopProbe
	recs []congest.RoundRecord
}

func (p *recordProbe) RoundEnd(rec *congest.RoundRecord) {
	r := *rec
	r.InboxSizes, r.EdgeLoad = slices.Clone(rec.InboxSizes), slices.Clone(rec.EdgeLoad)
	p.recs = append(p.recs, r)
}

// walkOutcome is everything a walk run shows: its result, the tokens
// absorbed (recording runs), the plan's fault totals and every round
// record.
type walkOutcome struct {
	Res      NetworkWalkResult
	Err      error
	Absorbed [][]WalkTokenID
	Faults   faults.Counts
	Records  []congest.RoundRecord
}

// runWalkPrograms runs the walk programs — walkNode's, or the reference's
// when ref is set — on g under spec (empty: no plan), traced.
func runWalkPrograms(g *graph.Graph, counts, seqBase []int, steps int, spec string, seed uint64, workers int, ref bool) walkOutcome {
	var plan *faults.Plan
	if spec != "" {
		var err error
		if plan, err = faults.Parse(spec, seed); err != nil {
			panic(err)
		}
	}
	programs, arrived, absorbed, maxRounds := WalkPrograms(g, counts, seqBase, steps, plan)
	if ref {
		for v := range programs {
			programs[v] = &refWalkNode{steps: steps, counts: counts, arrived: arrived, seqBase: seqBase, absorbed: absorbed}
		}
	}
	probe := &recordProbe{}
	net := congest.NewNetwork(g, programs, rngutil.NewSource(seed)).
		Configure(congest.Options{Workers: workers, Probe: probe, Faults: plan})
	rounds, err := net.RunUntilQuiet(maxRounds)
	out := walkOutcome{Res: NetworkWalkResult{ArrivedAt: arrived, Rounds: rounds, Messages: net.Messages()}, Err: err, Absorbed: absorbed, Records: probe.recs}
	if plan != nil {
		out.Faults = plan.Totals()
	}
	return out
}

// walkCase decodes a fuzz input into a multigraph with a hub, token counts
// and a step count. Node 0 is the hub: hub extra edges to random nodes
// push its degree past 64, so its busy mask spans several words.
func walkCase(seed uint64, nRaw uint8, edgeRaw uint16, hubRaw, tokRaw, stepsRaw uint8) (*graph.Graph, []int, int) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	n := int(nRaw%40) + 2
	var edges []graph.Edge
	add := func(u, v int) {
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	for e := 0; e < int(edgeRaw)%(6*n); e++ {
		add(rng.IntN(n), rng.IntN(n))
	}
	for e := 0; e < int(hubRaw)%160; e++ {
		add(0, 1+rng.IntN(n-1))
	}
	counts := make([]int, n)
	for v := range counts {
		counts[v] = rng.IntN(int(tokRaw%6) + 1)
	}
	counts[0] += int(tokRaw) / 4
	return graph.FromEdges(n, edges), counts, int(stepsRaw % 24)
}

// FuzzWalkPrograms: on random multigraphs — isolated nodes, parallel
// edges, a hub of degree up to ~160 — walkNode's queues reproduce the
// reference's run exactly: arrivals, rounds, messages, absorptions, fault
// totals and every round record, plain and recording, with and without a
// fault plan, on one part and several.
func FuzzWalkPrograms(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint16(30), uint8(0), uint8(3), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(39), uint16(200), uint8(150), uint8(200), uint8(12), uint8(5))
	f.Add(uint64(3), uint8(70), uint16(5), uint8(100), uint8(40), uint8(20), uint8(14))
	f.Add(uint64(4), uint8(2), uint16(0), uint8(0), uint8(7), uint8(3), uint8(9))
	f.Add(uint64(5), uint8(20), uint16(80), uint8(66), uint8(255), uint8(23), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, edgeRaw uint16, hubRaw, tokRaw, stepsRaw, mode uint8) {
		g, counts, steps := walkCase(seed, nRaw, edgeRaw, hubRaw, tokRaw, stepsRaw)
		workers := int(mode%3) + 1
		var seqBase []int
		if mode&4 != 0 {
			seqBase = make([]int, g.N())
			for v := range seqBase {
				seqBase[v] = 3 * v
			}
		}
		spec := ""
		if mode&8 != 0 {
			spec = "drop=0.05,dup=0.1,delay=0.1:2"
		}
		want := runWalkPrograms(g, counts, seqBase, steps, spec, seed, 1, true)
		got := runWalkPrograms(g, counts, seqBase, steps, spec, seed, workers, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d m=%d steps=%d workers=%d spec %q: walkNode's run (rounds %d, msgs %d, %d records, err %v) differs from the reference's (rounds %d, msgs %d, %d records, err %v)",
				g.N(), g.M(), steps, workers, spec, got.Res.Rounds, got.Res.Messages, len(got.Records), got.Err,
				want.Res.Rounds, want.Res.Messages, len(want.Records), want.Err)
		}
	})
}
