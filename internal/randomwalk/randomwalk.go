// Package randomwalk runs many independent random walks in parallel on a
// graph under CONGEST edge-capacity constraints, implementing the
// scheduling of Lemmas 2.4 and 2.5 of the paper.
//
// Per walk step, every token at a node either stays (laziness) or crosses
// an incident edge. Each edge can carry one token per direction per
// CONGEST round, so executing one parallel step costs as many rounds as
// the most loaded directed edge. The engine executes walks step by step,
// measures that cost exactly, and records token paths so that walks can be
// re-run in reverse (the paper's mechanism for turning walk endpoints into
// usable overlay edges) and re-used as embedded routing paths.
package randomwalk

import (
	"fmt"
	"math"
	"math/rand/v2"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/spectral"
)

// Stats captures the congestion quantities that Lemmas 2.4 and 2.5 bound.
// It is the aggregate view; the per-step trajectory is also exposed
// through the simulator's uniform probe layer (Config.Probe), whose
// max_edge_load column equals PerStepMaxLoad entry for entry.
type Stats struct {
	// Rounds is the total measured CONGEST rounds to execute all steps:
	// the sum over steps of the maximum directed-edge load.
	Rounds int
	// MaxTokensAtNode is the maximum, over steps and nodes, of tokens
	// simultaneously at one node (Lemma 2.4's subject).
	MaxTokensAtNode int
	// MaxTokensOverDegree is the maximum over steps and nodes of
	// tokens(v)/d(v), the degree-normalized occupancy.
	MaxTokensOverDegree float64
	// PerStepMaxLoad[s] is the maximum directed-edge load in step s
	// (the measured analogue of Lemma 2.5's O(k+log n) phase length).
	PerStepMaxLoad []int
}

// Config controls a parallel walk execution.
type Config struct {
	Kind  spectral.WalkKind // Lazy or Regular (2Δ-regular)
	Steps int               // walk length T
	// Record keeps the walk trail, which Result.Path, Paths and
	// ReverseDeliveryRounds read (needed for reversal/embedding). When
	// false only endpoints and statistics are tracked.
	Record bool
	// Correlated runs the walks in the negatively-correlated fashion
	// the paper sketches for the k = o(log n) regime (the full-version
	// refinement of Lemma 2.5): per step, each node deals its resident
	// tokens across its transition slots like a shuffled deck instead
	// of sampling independently, so no edge carries more than ⌈tokens/d⌉
	// of them and the additive log n congestion term disappears. Each
	// token's marginal transition distribution is unchanged.
	Correlated bool
	// Probe, when non-nil, observes the execution through the simulator's
	// uniform observability layer: one RoundRecord per walk step, with
	// Delivered = edge traversals, MaxEdgeLoad = the step's maximum
	// directed-edge load (the Lemma 2.5 congestion, == PerStepMaxLoad),
	// InboxSizes = tokens resident per node after the step (the Lemma 2.4
	// occupancy), and Active = the token count. Hooks fire on the calling
	// goroutine; the handed slices are only valid during each call.
	Probe congest.Probe
	// TraceName labels the run in the probe's RunInfo.
	TraceName string
}

// Result is the outcome of a parallel walk execution: the endpoints, the
// congestion statistics and, when Config.Record was set, the walk trail
// that Path, Paths and ReverseDeliveryRounds read. A run without Record
// has no paths at all.
type Result struct {
	// Ends[i] is the node walk i occupies after the last step.
	Ends  []int32
	Stats Stats

	// trail is the step-major record of a recording run: trail[s·n+i] is
	// the node walk i (of n) occupies after s steps, so row 0 is the
	// sources and row steps is Ends (the same memory). Equal entries in
	// consecutive rows are lazy steps. nil without Config.Record.
	trail []int32
	steps int
	adj   *csr
}

// csr is the flat adjacency a run builds once so that the step loops read
// three int32 arrays instead of the graph's per-node slices: node v's
// half-edges are the positions start[v] ≤ p < start[v+1], in
// g.Neighbors(v) order; to[p] is the neighbor across p and slot[p] the
// directed edge-load slot 2·edgeID+dir the crossing charges.
type csr struct {
	start, to, slot []int32
}

func newCSR(g *graph.Graph) *csr {
	n, m := g.N(), g.M()
	if n >= math.MaxInt32 || m > math.MaxInt32/2 {
		panic(fmt.Sprintf("randomwalk: graph too large for int32 adjacency (n=%d, m=%d)", n, m))
	}
	buf := make([]int32, n+1+4*m)
	a := &csr{start: buf[:n+1], to: buf[n+1 : n+1+2*m], slot: buf[n+1+2*m:]}
	p := int32(0)
	for v := 0; v < n; v++ {
		a.start[v] = p
		for _, h := range g.Neighbors(v) {
			dir := int32(0)
			if g.Edge(h.EdgeID).V == h.To {
				dir = 1
			}
			a.to[p] = int32(h.To)
			a.slot[p] = 2*int32(h.EdgeID) + dir
			p++
		}
	}
	a.start[n] = p
	return a
}

// port returns the first half-edge of u that leads to v. Parallel edges
// therefore share a port, which is how a reverse replay (which only knows
// node pairs) merges them.
func (a *csr) port(u, v int32) int32 {
	for p := a.start[u]; p < a.start[u+1]; p++ {
		if a.to[p] == v {
			return p
		}
	}
	panic(fmt.Sprintf("randomwalk: trail crosses the non-edge (%d,%d)", u, v))
}

// stepper is the state the per-step loops share.
type stepper struct {
	adj *csr
	rng *rand.Rand
	// edgeLoad[slot] counts this step's crossings of a directed edge;
	// touched[:nTouched] lists the non-zero slots so they can be read and
	// cleared without sweeping all 2m.
	edgeLoad []int64
	touched  []int32
	nTouched int
	tokensAt []int32
	// bucketEnd and bucketTok are the correlated step's counting sort,
	// reused across steps.
	bucketEnd, bucketTok []int32
}

// cross moves one token from v over half-edge p and returns its new node.
func (st *stepper) cross(v, p int32) int32 {
	slot := st.adj.slot[p]
	if st.edgeLoad[slot] == 0 {
		st.touched[st.nTouched] = slot
		st.nTouched++
	}
	st.edgeLoad[slot]++
	next := st.adj.to[p]
	st.tokensAt[v]--
	st.tokensAt[next]++
	return next
}

// stepLazy advances every token one lazy step: a fair coin to stay, then
// a uniform incident edge.
func (st *stepper) stepLazy(cur, next []int32) {
	start, rng := st.adj.start, st.rng
	for i, v := range cur {
		lo := start[v]
		if deg := start[v+1] - lo; deg > 0 && rng.Uint64()&1 != 0 {
			v = st.cross(v, lo+int32(rng.IntN(int(deg))))
		}
		next[i] = v
	}
}

// stepRegular advances every token one step of the 2Δ-regular walk: one
// of 2Δ slots, of which the first d(v) are the incident edges and the rest
// stay.
func (st *stepper) stepRegular(cur, next []int32, twoDelta int) {
	start, rng := st.adj.start, st.rng
	for i, v := range cur {
		lo := start[v]
		if deg := start[v+1] - lo; deg > 0 {
			if r := int32(rng.IntN(twoDelta)); r < deg {
				v = st.cross(v, lo+r)
			}
		}
		next[i] = v
	}
}

// stepCorrelated advances every token one step with negative correlation:
// each node deals its resident tokens over a uniformly rotated "deck" of
// transition slots (d stay slots + d edge slots for the lazy walk;
// 2Δ−d(v) stay slots + d(v) edge slots for the 2Δ-regular walk), so the
// per-edge load is at most ⌈tokens/deck⌉ while every token's marginal
// transition stays exact.
func (st *stepper) stepCorrelated(kind spectral.WalkKind, cur, next []int32, twoDelta int) {
	// Counting sort of the tokens by node, ascending token index within a
	// node. tokensAt holds the bucket sizes; cross changes it only after
	// the bucket bounds are fixed.
	end, tokens := st.bucketEnd, st.bucketTok
	sum := int32(0)
	for v, c := range st.tokensAt {
		end[v] = sum
		sum += c
	}
	for i, v := range cur {
		tokens[end[v]] = int32(i)
		end[v]++
	}
	lo := int32(0)
	for node, hi := range end {
		here := tokens[lo:hi]
		lo = hi
		if len(here) == 0 {
			continue
		}
		v := int32(node)
		base := st.adj.start[v]
		d := int(st.adj.start[v+1] - base)
		if d == 0 {
			for _, tok := range here {
				next[tok] = v
			}
			continue
		}
		deckSize, stayCount := 2*d, d
		if kind == spectral.Regular {
			deckSize, stayCount = twoDelta, twoDelta-d
		}
		// Shuffle tokens, then deal them round-robin from a random
		// deck offset: position in a random permutation plus a uniform
		// rotation makes each token's slot marginally uniform.
		for i := len(here) - 1; i > 0; i-- {
			j := st.rng.IntN(i + 1)
			here[i], here[j] = here[j], here[i]
		}
		offset := st.rng.IntN(deckSize)
		for j, tok := range here {
			slot := (offset + j) % deckSize
			if slot < stayCount {
				next[tok] = v
			} else {
				next[tok] = st.cross(v, base+int32(slot-stayCount))
			}
		}
	}
}

// RunAllocCeiling bounds the heap objects one Run allocates, whatever the
// number of walks and steps: the result, the adjacency and its backing
// array, the trail, the per-step loads, the stepper and its arrays (three,
// five when correlated) — ten at most, plus slack for the runtime's own
// allocations while a measurement runs. The package's allocation test
// holds Run to it.
const RunAllocCeiling = 12

// Run executes one walk from each entry of sources (sources[i] = start
// node of walk i) for cfg.Steps parallel steps, and returns endpoints,
// congestion statistics and (with cfg.Record) the trail of every walk.
//
// The rng drives all token decisions, and the draw order is a contract
// that the golden construction fingerprints pin: steps in order; within a
// step, tokens in index order (independent walks) or nodes in ID order
// (correlated walks: a Fisher–Yates shuffle of the node's tokens, then one
// deck offset). A lazy token draws Uint64()&1 and, if it moves,
// IntN(d(v)); a 2Δ-regular token draws IntN(2Δ); a token on an isolated
// node draws nothing. Runs are reproducible given the same rng state.
func Run(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *Result {
	if cfg.Steps < 0 {
		panic("randomwalk: negative step count")
	}
	if cfg.Kind != spectral.Lazy && cfg.Kind != spectral.Regular {
		panic(fmt.Sprintf("randomwalk: unsupported walk kind %v", cfg.Kind))
	}
	nWalks := len(sources)
	rows := 1 // without Record every step overwrites the one row in place
	if cfg.Record {
		rows = cfg.Steps + 1
	}
	if nWalks > 0 && rows > math.MaxInt32/nWalks {
		panic(fmt.Sprintf("randomwalk: trail of %d rows × %d walks overflows int32 offsets", rows, nWalks))
	}
	adj := newCSR(g)
	trail := make([]int32, rows*nWalks)
	copy(trail, sources)
	res := &Result{Ends: trail[(rows-1)*nWalks:], steps: cfg.Steps, adj: adj}
	if cfg.Record {
		res.trail = trail
	}
	res.Stats.PerStepMaxLoad = make([]int, cfg.Steps)

	st := &stepper{
		adj:      adj,
		rng:      rng,
		edgeLoad: make([]int64, 2*g.M()), // directed: 2*id + dir
		touched:  make([]int32, min(nWalks, 2*g.M())),
		tokensAt: make([]int32, g.N()),
	}
	if cfg.Correlated {
		st.bucketEnd = make([]int32, g.N())
		st.bucketTok = make([]int32, nWalks)
	}
	for _, s := range sources {
		st.tokensAt[s]++
	}
	res.noteOccupancy(st.tokensAt)
	var inboxBuf []int // per-node occupancy copy handed to the probe
	if cfg.Probe != nil {
		inboxBuf = make([]int, g.N())
		cfg.Probe.RunStart(congest.RunInfo{Name: cfg.TraceName, Nodes: g.N(), Edges: g.M()})
	}

	twoDelta := 2 * g.MaxDegree()
	cur := trail[:nWalks]
	for step := 0; step < cfg.Steps; step++ {
		next := cur
		if cfg.Record {
			next = trail[(step+1)*nWalks : (step+2)*nWalks]
		}
		switch {
		case cfg.Correlated:
			st.stepCorrelated(cfg.Kind, cur, next, twoDelta)
		case cfg.Kind == spectral.Lazy:
			st.stepLazy(cur, next)
		default:
			st.stepRegular(cur, next, twoDelta)
		}
		cur = next

		crossed := st.touched[:st.nTouched]
		maxLoad, moves := 1, 0 // a phase takes at least one round even if all tokens stayed
		for _, slot := range crossed {
			load := int(st.edgeLoad[slot])
			moves += load
			maxLoad = max(maxLoad, load)
		}
		res.Stats.PerStepMaxLoad[step] = maxLoad
		res.Stats.Rounds += maxLoad
		res.noteOccupancy(st.tokensAt)
		if cfg.Probe != nil {
			// Emit the step record before the edge loads are cleared: one
			// "round" per walk step, congestion as Lemma 2.5 counts it.
			rec := &congest.RoundRecord{
				Round:        step + 1,
				Delivered:    moves,
				Active:       nWalks,
				MaxInboxNode: -1,
				MaxEdgeLoad:  int64(maxLoad),
				InboxSizes:   inboxBuf,
				EdgeLoad:     st.edgeLoad,
			}
			for v, c := range st.tokensAt {
				inboxBuf[v] = int(c)
				if int(c) > rec.MaxInbox {
					rec.MaxInbox = int(c)
					rec.MaxInboxNode = v
				}
			}
			cfg.Probe.RoundEnd(rec)
		}
		for _, slot := range crossed {
			st.edgeLoad[slot] = 0
		}
		st.nTouched = 0
	}
	if cfg.Probe != nil {
		cfg.Probe.RunEnd(res.Stats.Rounds, nil)
	}
	return res
}

func (r *Result) noteOccupancy(tokensAt []int32) {
	for v, c := range tokensAt {
		if int(c) > r.Stats.MaxTokensAtNode {
			r.Stats.MaxTokensAtNode = int(c)
		}
		if d := r.adj.start[v+1] - r.adj.start[v]; d > 0 {
			if ratio := float64(c) / float64(d); ratio > r.Stats.MaxTokensOverDegree {
				r.Stats.MaxTokensOverDegree = ratio
			}
		}
	}
}

// Path returns walk i's trajectory: Path(i)[s] is the node occupied after
// s steps, so Path(i)[0] is the source and Path(i)[Steps] the endpoint.
// Equal consecutive entries are lazy (non-moving) steps. It needs a run
// with Config.Record.
func (r *Result) Path(i int) []int32 { return r.Paths([]int{i})[0] }

// Paths gathers the trajectories of the walks keep lists (nil = all), in
// that order, out of the trail into one arena. A caller that keeps only a
// fraction of the walks it ran — as the overlay builders do — pays for
// that fraction only.
func (r *Result) Paths(keep []int) [][]int32 {
	keep = r.kept(keep)
	n, length := len(r.Ends), r.steps+1
	arena := make([]int32, len(keep)*length)
	paths := make([][]int32, len(keep))
	for k := range paths {
		paths[k] = arena[k*length : (k+1)*length : (k+1)*length]
	}
	for s := 0; s < length; s++ {
		row := r.trail[s*n : (s+1)*n]
		for k, i := range keep {
			arena[k*length+s] = row[i]
		}
	}
	return paths
}

// kept resolves a walk subset (nil = all) and rejects a run that recorded
// no trail.
func (r *Result) kept(keep []int) []int {
	if r.trail == nil {
		panic("randomwalk: paths requested from a run without Config.Record")
	}
	if keep != nil {
		return keep
	}
	keep = make([]int, len(r.Ends))
	for i := range keep {
		keep[i] = i
	}
	return keep
}

// SourcesPerNode expands per-node walk counts into a flat source list:
// counts[v] walks start at node v.
func SourcesPerNode(counts []int) []int32 {
	total := 0
	for _, c := range counts {
		total += c
	}
	sources := make([]int32, 0, total)
	for v, c := range counts {
		for i := 0; i < c; i++ {
			sources = append(sources, int32(v))
		}
	}
	return sources
}

// UniformCountTimesDegree returns the start-count vector k·d_G(v) used by
// Lemma 2.5's premise.
func UniformCountTimesDegree(g *graph.Graph, k int) []int {
	counts := make([]int, g.N())
	for v := range counts {
		counts[v] = k * g.Degree(v)
	}
	return counts
}

// ReverseDeliveryRounds measures the CONGEST rounds needed to run the
// recorded walks keep lists (nil = all) backwards — the mechanism of
// §3.1.1 for informing sources of their endpoints. By symmetry each
// reverse step loads edges exactly as the forward step did, so for all
// walks the cost equals replaying the forward schedule; for a subset it is
// recomputed here from the trail. Loads are counted per (from, to) node
// pair, so parallel edges between the same pair share one load.
func (r *Result) ReverseDeliveryRounds(keep []int) int {
	keep = r.kept(keep)
	if len(keep) == 0 {
		return 0
	}
	n := len(r.Ends)
	load := make([]int32, len(r.adj.to)) // per port, cleared via touched
	touched := make([]int32, 0, min(len(keep), len(load)))
	rounds := 0
	for s := r.steps; s >= 1; s-- {
		from, to := r.trail[s*n:(s+1)*n], r.trail[(s-1)*n:s*n]
		maxLoad := int32(1)
		for _, i := range keep {
			if from[i] == to[i] {
				continue
			}
			p := r.adj.port(from[i], to[i])
			if load[p] == 0 {
				touched = append(touched, p)
			}
			load[p]++
			maxLoad = max(maxLoad, load[p])
		}
		rounds += int(maxLoad)
		for _, p := range touched {
			load[p] = 0
		}
		touched = touched[:0]
	}
	return rounds
}
