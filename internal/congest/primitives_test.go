package congest

// One-call drivers over the built-in programs, and the leader-election and
// convergecast programs: only the suites in this package run them, so they
// live beside the suites.

import (
	"fmt"
	"math"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// Depth returns the depth of the BFS tree (= eccentricity of the root).
func (r *BFSResult) Depth() int {
	depth := 0
	for _, d := range r.Dist {
		if d > depth {
			depth = d
		}
	}
	return depth
}

// BFS builds a BFS tree rooted at root by distributed flooding. It costs
// O(D) rounds and returns the tree along with the measured round count.
func BFS(g *graph.Graph, root int, src *rngutil.Source) (*BFSResult, int, error) {
	programs, res := BFSPrograms(g, root)
	rounds, err := NewNetwork(g, programs, src).RunUntilQuiet(2*g.N() + 4)
	if err != nil {
		return nil, rounds, fmt.Errorf("bfs: %w", err)
	}
	return res, rounds, nil
}

// leaderToken packs a leader-election token: the best ID seen rides in A.
func leaderToken(id int) Message { return Message{Kind: kindLeader, A: int32(id)} }

type leaderProgram struct {
	best   int
	result []int
}

func (p *leaderProgram) Init(ctx *Ctx) {
	p.best = ctx.ID()
	ctx.Broadcast(leaderToken(p.best))
}

func (p *leaderProgram) Step(ctx *Ctx, inbox []Inbound) {
	improved := false
	for _, in := range inbox {
		if in.Payload.Kind != kindLeader {
			PanicUnknownKind("congest: leader", ctx, in)
		}
		if id := int(in.Payload.A); id > p.best {
			p.best = id
			improved = true
		}
	}
	if improved {
		ctx.Broadcast(leaderToken(p.best))
	}
	p.result[ctx.ID()] = p.best
}

// ElectLeader floods the maximum node ID; every node learns the leader.
// It costs O(D) rounds (with quiescence detection) and returns the leader
// ID and the measured round count.
func ElectLeader(g *graph.Graph, src *rngutil.Source) (leader, rounds int, err error) {
	result := make([]int, g.N())
	net := NewUniformNetwork(g, func(v int) Program {
		return &leaderProgram{result: result}
	}, src)
	rounds, err = net.RunUntilQuiet(2*g.N() + 4)
	if err != nil {
		return 0, rounds, fmt.Errorf("leader election: %w", err)
	}
	leader = result[0]
	for v, got := range result {
		if got != leader {
			return 0, rounds, fmt.Errorf("leader election: node %d decided %d, node 0 decided %d", v, got, leader)
		}
	}
	return leader, rounds, nil
}

// BroadcastFrom floods an integer value from the root; every node the
// flood reaches learns it. values[v] is the record node v received — read
// it with FloodValue — and the empty record at a node the flood never
// reached. The returned rounds count measures the flood.
func BroadcastFrom(g *graph.Graph, root, value int, src *rngutil.Source) (values []Message, rounds int, err error) {
	programs, values := FloodPrograms(g, root, value)
	rounds, err = NewNetwork(g, programs, src).RunUntilQuiet(2*g.N() + 4)
	if err != nil {
		return nil, rounds, fmt.Errorf("broadcast: %w", err)
	}
	return values, rounds, nil
}

// ConvergecastSum computes the sum of per-node float values up a BFS tree
// to the root, distributedly, and returns the total (as known by the
// root) plus the measured round count.
func ConvergecastSum(g *graph.Graph, tree *BFSResult, values []float64, src *rngutil.Source) (float64, int, error) {
	depth := tree.Depth()
	totals := make([]float64, g.N())
	net := NewUniformNetwork(g, func(v int) Program {
		return &sumProgram{tree: tree, depth: depth, value: values[v], totals: totals}
	}, src)
	rounds, err := net.Run(depth + 2)
	if err != nil {
		return 0, rounds, fmt.Errorf("convergecast: %w", err)
	}
	return totals[tree.Root], rounds, nil
}

type sumProgram struct {
	tree   *BFSResult
	depth  int
	value  float64
	acc    float64
	totals []float64
}

func (p *sumProgram) Init(_ *Ctx) { p.acc = p.value }

func (p *sumProgram) Step(ctx *Ctx, inbox []Inbound) {
	for _, in := range inbox {
		if in.Payload.Kind != kindSum {
			PanicUnknownKind("congest: convergecast", ctx, in)
		}
		p.acc += math.Float64frombits(in.Payload.W)
	}
	v := ctx.ID()
	// Level ℓ nodes forward to their parents in round depth−ℓ+1, so each
	// node receives all children's partial sums before it forwards.
	sendRound := p.depth - p.tree.Dist[v] + 1
	switch {
	case ctx.Round() == sendRound && p.tree.Parent[v] >= 0:
		if port := ctx.PortTo(p.tree.Parent[v]); port >= 0 {
			ctx.Send(port, Message{Kind: kindSum, W: math.Float64bits(p.acc)})
		}
		p.totals[v] = p.acc
		ctx.Halt()
	case ctx.Round() > sendRound:
		p.totals[v] = p.acc
		ctx.Halt()
	}
}
