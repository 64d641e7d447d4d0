package congest

import (
	"errors"
	"testing"
	"testing/quick"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// pingProgram sends one message on every port and counts replies.
type pingProgram struct {
	received *int
}

func (p *pingProgram) Init(ctx *Ctx) { ctx.Broadcast(ping) }

func (p *pingProgram) Step(ctx *Ctx, inbox []Inbound) {
	*p.received += len(inbox)
	ctx.Halt()
}

func TestPingDelivery(t *testing.T) {
	g := graph.Ring(6)
	received := 0
	net := NewUniformNetwork(g, func(v int) Program {
		return &pingProgram{received: &received}
	}, rngutil.NewSource(1))
	rounds, err := net.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Fatalf("rounds = %d, want 1", rounds)
	}
	if received != 2*g.M() {
		t.Fatalf("received %d messages, want %d", received, 2*g.M())
	}
	if net.Messages() != 2*g.M() {
		t.Fatalf("Messages() = %d, want %d", net.Messages(), 2*g.M())
	}
}

// doubleSend verifies the per-port capacity of one message per round.
type doubleSend struct{}

func (doubleSend) Init(ctx *Ctx) {
	ctx.Send(0, testInt(1))
	ctx.Send(0, testInt(2))
}
func (doubleSend) Step(ctx *Ctx, _ []Inbound) { ctx.Halt() }

func TestDoubleSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double send on one port did not panic")
		}
	}()
	g := graph.Ring(3)
	net := NewUniformNetwork(g, func(int) Program { return doubleSend{} }, rngutil.NewSource(1))
	_, _ = net.Run(2)
}

type neverHalt struct{}

func (neverHalt) Init(*Ctx)            {}
func (neverHalt) Step(*Ctx, []Inbound) {}

func TestRoundLimit(t *testing.T) {
	g := graph.Ring(3)
	net := NewUniformNetwork(g, func(int) Program { return neverHalt{} }, rngutil.NewSource(1))
	_, err := net.Run(5)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if net.Rounds() != 5 {
		t.Fatalf("rounds = %d, want 5", net.Rounds())
	}
}

func TestRunUntilQuietStopsOnSilence(t *testing.T) {
	g := graph.Ring(4)
	net := NewUniformNetwork(g, func(int) Program { return neverHalt{} }, rngutil.NewSource(1))
	rounds, err := net.RunUntilQuiet(100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds > 2 {
		t.Fatalf("silent network ran %d rounds", rounds)
	}
}

func TestCtxAccessors(t *testing.T) {
	g := graph.Path(3)
	var sawN, sawDeg, sawNbr, sawEdge int
	var sawW float64
	probe := func(v int) Program {
		return programFunc{
			init: func(ctx *Ctx) {
				if ctx.ID() == 1 {
					sawN = ctx.N()
					sawDeg = ctx.Degree()
					sawNbr = ctx.NeighborID(0)
					sawEdge = ctx.EdgeID(0)
					sawW = ctx.EdgeWeight(0)
				}
				ctx.Halt()
			},
		}
	}
	net := NewUniformNetwork(g, probe, rngutil.NewSource(1))
	if _, err := net.Run(2); err != nil {
		t.Fatal(err)
	}
	if sawN != 3 || sawDeg != 2 || sawNbr != 0 || sawEdge != 0 || sawW != 1 {
		t.Fatalf("accessors: n=%d deg=%d nbr=%d edge=%d w=%v", sawN, sawDeg, sawNbr, sawEdge, sawW)
	}
}

type programFunc struct {
	init func(*Ctx)
	step func(*Ctx, []Inbound)
}

func (p programFunc) Init(ctx *Ctx) {
	if p.init != nil {
		p.init(ctx)
	}
}

func (p programFunc) Step(ctx *Ctx, inbox []Inbound) {
	if p.step != nil {
		p.step(ctx, inbox)
	} else {
		ctx.Halt()
	}
}

func TestBFSMatchesCentralized(t *testing.T) {
	r := rngutil.NewRand(3)
	for _, g := range []*graph.Graph{
		graph.Ring(12),
		graph.Grid(4, 5),
		graph.RandomRegular(20, 3, r),
		graph.Lollipop(6, 6),
	} {
		res, rounds, err := BFS(g, 0, rngutil.NewSource(7))
		if err != nil {
			t.Fatal(err)
		}
		want := g.BFSDist(0)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v] != want[v] {
				t.Fatalf("BFS dist[%d] = %d, want %d", v, res.Dist[v], want[v])
			}
			if v != 0 {
				p := res.Parent[v]
				if p < 0 || want[p] != want[v]-1 || !g.HasEdge(p, v) {
					t.Fatalf("BFS parent of %d is %d (dist %d)", v, p, res.Dist[v])
				}
			}
		}
		// Flooding completes in about eccentricity-many rounds.
		if rounds > res.Depth()+3 {
			t.Fatalf("BFS took %d rounds for depth %d", rounds, res.Depth())
		}
	}
}

func TestElectLeader(t *testing.T) {
	g := graph.Grid(5, 5)
	leader, rounds, err := ElectLeader(g, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	if leader != g.N()-1 {
		t.Fatalf("leader = %d, want %d", leader, g.N()-1)
	}
	if rounds > 3*g.Diameter()+4 {
		t.Fatalf("election took %d rounds on diameter %d", rounds, g.Diameter())
	}
}

func TestBroadcastFrom(t *testing.T) {
	g := graph.BinaryTree(15)
	values, rounds, err := BroadcastFrom(g, 0, 424242, rngutil.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	for v, got := range values {
		if val, ok := FloodValue(got); !ok || val != 424242 {
			t.Fatalf("node %d got %v", v, got)
		}
	}
	if rounds > g.Diameter()+3 {
		t.Fatalf("broadcast took %d rounds", rounds)
	}
}

func TestConvergecastSum(t *testing.T) {
	g := graph.Grid(4, 4)
	tree, _, err := BFS(g, 0, rngutil.NewSource(8))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, g.N())
	want := 0.0
	for v := range values {
		values[v] = float64(v + 1)
		want += values[v]
	}
	got, _, err := ConvergecastSum(g, tree, values, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// Property: on random connected graphs, BFS distances computed by the
// distributed program equal centralized BFS distances, and leader election
// elects the max ID.
func TestPropertyPrimitives(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, err := graph.ConnectedGnp(20, 0.2, r)
		if err != nil {
			return true
		}
		res, _, err := BFS(g, int(seed%20), rngutil.NewSource(seed))
		if err != nil {
			return false
		}
		want := g.BFSDist(int(seed % 20))
		for v := range want {
			if res.Dist[v] != want[v] {
				return false
			}
		}
		leader, _, err := ElectLeader(g, rngutil.NewSource(seed+1))
		return err == nil && leader == g.N()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCtxRoundAdvances(t *testing.T) {
	g := graph.Ring(4)
	var rounds []int
	net := NewUniformNetwork(g, func(v int) Program {
		return programFunc{step: func(ctx *Ctx, _ []Inbound) {
			if ctx.ID() == 0 {
				rounds = append(rounds, ctx.Round())
			}
			if ctx.Round() >= 3 {
				ctx.Halt()
			}
		}}
	}, rngutil.NewSource(1))
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[0] != 1 || rounds[2] != 3 {
		t.Fatalf("observed rounds %v", rounds)
	}
}

func TestNodeRandIsPerNodeDeterministic(t *testing.T) {
	g := graph.Ring(4)
	draw := func() []uint64 {
		out := make([]uint64, g.N())
		net := NewUniformNetwork(g, func(v int) Program {
			return programFunc{init: func(ctx *Ctx) {
				out[ctx.ID()] = ctx.Rand().Uint64()
				ctx.Halt()
			}}
		}, rngutil.NewSource(9))
		if _, err := net.Run(2); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("per-node streams not reproducible")
		}
	}
	if a[0] == a[1] {
		t.Fatal("different nodes share a stream")
	}
}

func TestNewNetworkPanicsOnCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched program count did not panic")
		}
	}()
	NewNetwork(graph.Ring(3), []Program{neverHalt{}}, rngutil.NewSource(1))
}
