// Package mst implements the paper's distributed minimum-spanning-tree
// algorithm (§4, Theorem 1.1): Borůvka iterations with random head/tail
// coin merges, where each iteration's minimum-weight-outgoing-edge
// computation is an upcast/downcast over per-fragment virtual trees whose
// edges are served by the hierarchical routing scheme of §3.
//
// Round accounting per iteration, all measured on the simulator:
//
//   - one physical round for the fragment-ID exchange between neighbors;
//   - one routing instance (child → parent over every virtual tree edge)
//     measured once and charged per tree level for the upcast, again for
//     the downcast, and per balancing wave (the paper repeats the same
//     routing pattern once per level, so the per-step request multiset is
//     identical; we measure it once per iteration and multiply).
package mst

import (
	"fmt"
	"math"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
)

// IterationStats records one Borůvka iteration of the hierarchical MST.
type IterationStats struct {
	Fragments     int // fragments at the start of the iteration
	Merges        int // tail-into-head merges performed
	TreeDepth     int // max virtual-tree depth before merging
	UpcastSteps   int // tree levels walked for upcast + downcast
	BalanceWaves  int // token waves during rebalancing
	StepRounds    int // measured base rounds of one routing step
	Rounds        int // total base rounds charged to this iteration
	MaxInDegRatio float64
}

// Result is the outcome of a hierarchical MST computation.
type Result struct {
	// Edges are the chosen MST edge IDs.
	Edges []int
	// Weight is the total weight of the chosen edges.
	Weight float64
	// Rounds is the total measured base-graph rounds, including the
	// hierarchy construction.
	Rounds int
	// AlgorithmRounds excludes the (reusable) hierarchy construction.
	AlgorithmRounds int
	// Iterations records per-iteration statistics (experiment E9).
	Iterations []IterationStats
	// MaxTreeDepth is the largest virtual-tree depth ever observed.
	MaxTreeDepth int
	// MaxInDegRatio is the largest observed inDeg(v)/d_G(v).
	MaxInDegRatio float64
	// Costs is the run's cost ledger: the hierarchy's construction
	// ledger grafted next to an algorithm span holding one span per
	// Borůvka iteration (fragment exchange plus the measured tree step
	// multiplied by upcast/downcast/balancing repetitions). Rounds and
	// AlgorithmRounds are read off it.
	Costs *cost.Ledger
}

// Run computes the MST of h's weighted base graph using the hierarchical
// routing structure. Edge weights should be distinct (use
// AssignDistinctRandomWeights); ties are broken by edge ID, under which
// the reported tree is still a minimum spanning tree.
func Run(h *embed.Hierarchy, src *rngutil.Source) (*Result, error) {
	g := h.Base
	n := g.N()
	if !g.IsConnected() {
		return nil, fmt.Errorf("mst: %w", graph.ErrDisconnected)
	}
	forest := NewForest(n)
	res := &Result{}
	coinRng := src.Stream("coins", 0)
	maxIter := 30 * (log2int(n) + 1)
	sc := newScratch(n)

	// The MST ledger reuses the hierarchy's construction ledger as a
	// grafted child (the structure is built once and amortized), next to
	// an algorithm span the iterations charge into.
	led := cost.New("mst", "base rounds")
	if h.Costs != nil {
		led.Attach(h.Costs.Root)
	} else {
		led.Open("construction", "base rounds", 1)
		led.Charge(h.ConstructionRoundsBase())
		led.Close()
	}
	led.Open("algorithm", "base rounds", 1)

	frags := n // the singleton forest; Relabel recounts after every iteration
	for iter := 0; iter < maxIter; iter++ {
		if frags == 1 {
			led.CloseExpect(res.AlgorithmRounds) // algorithm span
			res.Rounds = led.Close()             // root: construction + algorithm
			if err := led.Err(); err != nil {
				return nil, fmt.Errorf("mst: cost ledger: %w", err)
			}
			res.Costs = led
			res.Weight = g.TotalWeight(res.Edges)
			return res, nil
		}
		stats := IterationStats{Fragments: frags}

		forest.depthsInto(sc.depth)
		stats.TreeDepth = maxDepth(sc.depth)
		if stats.TreeDepth > res.MaxTreeDepth {
			res.MaxTreeDepth = stats.TreeDepth
		}

		// Measure the cost of one tree-routing step: every non-root
		// sends one message to its virtual parent.
		stepRep, err := measureTreeStep(h, forest, sc, src.Child("step", uint64(iter)))
		if err != nil {
			return nil, fmt.Errorf("mst: iteration %d: %w", iter, err)
		}
		stepRounds := 0
		if stepRep != nil {
			stepRounds = stepRep.BaseRounds
		}
		stats.StepRounds = stepRounds

		// MWOE per fragment (the upcast's semantic outcome), by the scan
		// every Borůvka of the repo shares.
		mstbase.ScanMWOE(g, forest.frag, sc.mwoe)

		// Snapshot for balancing before any attachment; it also names
		// the fragments: a fragment's ID is its root's node ID.
		copy(sc.snapParent, forest.parent)

		// Random head/tail coins per fragment. Walking the roots in node
		// order assigns the coins in ascending fragment order — the
		// run's reproducible coin stream.
		for v := int32(0); v < int32(n); v++ {
			if sc.snapParent[v] < 0 {
				sc.head[v] = coinRng.Uint64()&1 == 0
			}
		}

		// Merge tails into heads along their MWOEs, again in ascending
		// fragment order (it fixes the order of res.Edges).
		sc.attachPoints = sc.attachPoints[:0]
		for fragID := int32(0); fragID < int32(n); fragID++ {
			if sc.snapParent[fragID] >= 0 {
				continue // not a fragment root
			}
			e := sc.mwoe[fragID]
			if e.Edge < 0 || sc.head[fragID] {
				continue // head or no outgoing edge
			}
			target := forest.Fragment(e.Y)
			if !sc.head[target] {
				continue // tail → tail: skip this iteration
			}
			forest.Attach(fragID, e.Y)
			res.Edges = append(res.Edges, e.Edge)
			sc.attachPoints = append(sc.attachPoints, e.Y)
			stats.Merges++
		}

		// Rebalance the head trees that received attachments.
		waves := forest.balance(sc).Waves
		stats.BalanceWaves = waves
		frags = forest.Relabel()

		// Audit Lemma 4.1's degree invariant.
		for v := 0; v < n; v++ {
			ratio := float64(forest.InDegree(int32(v))) / float64(g.Degree(v))
			if ratio > stats.MaxInDegRatio {
				stats.MaxInDegRatio = ratio
			}
		}
		if stats.MaxInDegRatio > res.MaxInDegRatio {
			res.MaxInDegRatio = stats.MaxInDegRatio
		}

		// Charge: fragment exchange + (up + down + balancing) steps.
		// The tree-steps span grafts the measured routing instance's own
		// ledger; its multiplier repeats it once per upcast/downcast
		// level and balancing wave. Closing checks the span tree against
		// the direct formula, and the iteration total becomes
		// stats.Rounds.
		stats.UpcastSteps = 2 * (stats.TreeDepth + 1)
		led.Open(fmt.Sprintf("iteration-%02d", iter), "base rounds", 1)
		led.Open("fragment-exchange", "base rounds", 1)
		led.Charge(1)
		led.Close()
		led.Open("tree-steps", "base rounds per step", stats.UpcastSteps+waves)
		if stepRep != nil {
			led.Attach(stepRep.Costs.Root)
		}
		led.CloseExpect(stepRounds)
		stats.Rounds = led.CloseExpect(1 + (stats.UpcastSteps+waves)*stepRounds)
		res.AlgorithmRounds += stats.Rounds
		res.Iterations = append(res.Iterations, stats)
	}
	return nil, fmt.Errorf("mst: did not converge within %d iterations", maxIter)
}

// scratch is the working memory of one Run, allocated once and reused by
// every Borůvka iteration. Everything is indexed by node ID; the entries
// that describe a fragment sit at its root's ID.
type scratch struct {
	mwoe       []mstbase.MWOE // per fragment: minimum-weight outgoing edge
	head       []bool         // per fragment: this iteration's coin
	depth      []int32        // virtual-tree depths before merging
	snapParent []int32        // parent table before merging
	childRank  []int32        // measureTreeStep: children seen per parent
	reqs       []route.Request
	// attachPoints are this iteration's attachment points: the head-side
	// endpoint of every merging tail's edge.
	attachPoints []int32
	// balance: the live tokens, and how many sit at each node.
	tokens   []token
	tokensAt []int32
}

func newScratch(n int) *scratch {
	return &scratch{
		mwoe:       make([]mstbase.MWOE, n),
		head:       make([]bool, n),
		depth:      make([]int32, n),
		snapParent: make([]int32, n),
		childRank:  make([]int32, n),
		tokensAt:   make([]int32, n),
		reqs:       make([]route.Request, 0, n),
	}
}

// measureTreeStep routes one message from every non-root node to its
// virtual-tree parent and returns the routing report (nil when every node
// is a fragment root and there is nothing to send). This is the per-level
// cost of the upcast/downcast (and of the balancing token waves, which use
// the same channel).
func measureTreeStep(h *embed.Hierarchy, f *Forest, sc *scratch, src *rngutil.Source) (*route.Report, error) {
	g := h.Base
	sc.reqs = sc.reqs[:0]
	clear(sc.childRank)
	for v := int32(0); v < int32(g.N()); v++ {
		p := f.Parent(v)
		if p < 0 {
			continue
		}
		idx := int(sc.childRank[p]) % g.Degree(int(p))
		sc.childRank[p]++
		sc.reqs = append(sc.reqs, route.Request{SrcNode: int(v), DstNode: int(p), DstIndex: idx})
	}
	if len(sc.reqs) == 0 {
		return nil, nil
	}
	return route.Route(h, sc.reqs, src)
}

func maxDepth(depths []int32) int {
	maxD := int32(0)
	for _, d := range depths {
		if d > maxD {
			maxD = d
		}
	}
	return int(maxD)
}

func log2int(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}
