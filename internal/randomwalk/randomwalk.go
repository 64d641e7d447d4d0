// Package randomwalk runs many independent random walks in parallel on a
// graph under CONGEST edge-capacity constraints, implementing the
// scheduling of Lemmas 2.4 and 2.5 of the paper.
//
// Per walk step, every token at a node either stays (laziness) or crosses
// an incident edge. Each edge can carry one token per direction per
// CONGEST round, so executing one parallel step costs as many rounds as
// the most loaded directed edge. The engine executes walks step by step,
// measures that cost exactly, and records which port every token left by,
// so that walks can be re-run in reverse (the paper's mechanism for turning
// walk endpoints into usable overlay edges) and re-used as embedded routing
// paths.
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
	// Record keeps the walk trail — per step and walk, the port the token
	// left by, at most one byte each while Δ ≤ 255 — which Result.Path,
	// Paths and ReverseDeliveryRounds replay from the sources (needed for
	// reversal/embedding). When false only endpoints and statistics are
	// tracked.
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
// congestion statistics and, when Config.Record was set, the sources and
// the moves that Path, Paths and ReverseDeliveryRounds replay. A run
// without Record has no paths at all.
type Result struct {
	// Ends[i] is the node walk i occupies after the last step.
	Ends  []int32
	Stats Stats

	// sources is a recording run's copy of the start nodes and trail its
	// moves (see moves); both nil without Config.Record.
	sources []int32
	trail   trail
	steps   int
	g       *graph.Graph
}

// width is an unsigned type a trail can be kept in. Run keeps it in the
// narrowest one that holds g.MaxDegree().
type width interface{ ~uint8 | ~uint16 | ~uint32 }

// moves is a recording run's trail: moves[s·n+i] is 1 + the offset, inside
// its node's range of the graph's CSR, of the half-edge walk i (of n)
// crossed in step s+1,
// or 0 when it stayed. Replaying from the sources through the CSR recovers
// every node of every path, so a byte per token per step is the whole
// record while Δ ≤ 255.
type moves[T width] []T

func (m moves[T]) hop(k int) (off int32, moved bool) {
	x := m[k]
	return int32(x) - 1, x != 0
}

// trail is the width-erased view of moves the Result replays through.
type trail interface {
	hop(k int) (off int32, moved bool)
}

// stepper is the state the per-step loops share.
type stepper struct {
	// start and half are the graph's CSR (graph.Graph.CSR).
	start []int32
	half  []graph.Halfedge
	rng   *rand.Rand
	// edgeLoad[arc] counts this step's crossings of a directed edge;
	// touched[:nTouched] lists the non-zero arcs so they can be read and
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
	h := st.half[p]
	if st.edgeLoad[h.Arc] == 0 {
		st.touched[st.nTouched] = h.Arc
		st.nTouched++
	}
	st.edgeLoad[h.Arc]++
	st.tokensAt[v]--
	st.tokensAt[h.To]++
	return h.To
}

// move sends token i from v over the half-edge at offset off of v's CSR
// range, which starts at lo, notes the move in row when the run keeps a
// trail (row is nil otherwise), and returns the token's new node. It is
// the step kernels' only trail write.
func move[T width](st *stepper, row []T, i int, v, lo, off int32) int32 {
	if row != nil {
		row[i] = T(off + 1)
	}
	return st.cross(v, lo+off)
}

// stepLazy advances every token one lazy step in place: a fair coin to
// stay, then a uniform incident edge.
func stepLazy[T width](st *stepper, at []int32, row []T) {
	start, rng := st.start, st.rng
	for i, v := range at {
		lo := start[v]
		if deg := start[v+1] - lo; deg > 0 && rng.Uint64()&1 != 0 {
			at[i] = move(st, row, i, v, lo, int32(rng.IntN(int(deg))))
		}
	}
}

// stepRegular advances every token one step of the 2Δ-regular walk in
// place: one of 2Δ slots, of which the first d(v) are the incident edges
// and the rest stay.
func stepRegular[T width](st *stepper, at []int32, row []T, twoDelta int) {
	start, rng := st.start, st.rng
	for i, v := range at {
		lo := start[v]
		if deg := start[v+1] - lo; deg > 0 {
			if r := int32(rng.IntN(twoDelta)); r < deg {
				at[i] = move(st, row, i, v, lo, r)
			}
		}
	}
}

// stepCorrelated advances every token one step in place with negative
// correlation: each node deals its resident tokens over a uniformly
// rotated "deck" of transition slots (d stay slots + d edge slots for the
// lazy walk; 2Δ−d(v) stay slots + d(v) edge slots for the 2Δ-regular
// walk), so the per-edge load is at most ⌈tokens/deck⌉ while every
// token's marginal transition stays exact.
func stepCorrelated[T width](st *stepper, kind spectral.WalkKind, at []int32, row []T, twoDelta int) {
	// Counting sort of the tokens by node, ascending token index within a
	// node. tokensAt holds the bucket sizes; cross changes it only after
	// the bucket bounds are fixed, and every token is read here before
	// any is moved.
	end, tokens := st.bucketEnd, st.bucketTok
	sum := int32(0)
	for v, c := range st.tokensAt {
		end[v] = sum
		sum += c
	}
	for i, v := range at {
		tokens[end[v]] = int32(i)
		end[v]++
	}
	lo := int32(0)
	for node, hi := range end {
		here := tokens[lo:hi]
		lo = hi
		v := int32(node)
		base := st.start[v]
		d := int(st.start[v+1] - base)
		if len(here) == 0 || d == 0 {
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
			if slot := (offset + j) % deckSize; slot >= stayCount {
				at[tok] = move(st, row, int(tok), v, base, int32(slot-stayCount))
			}
		}
	}
}

// RunAllocCeiling bounds the heap objects one Run allocates, whatever the
// number of walks and steps: the result, the endpoints (with the sources'
// copy when recording), the trail and its interface box, the per-step
// loads, the edge loads and one int32 scratch array for the rest of the
// step state — seven at most, eight with a Probe's occupancy buffer, plus
// slack for the runtime's own allocations while a measurement runs. The
// walks read the graph's own CSR (graph.Graph.CSR) and copy none of it.
// The package's allocation test holds Run to this figure.
const RunAllocCeiling = 10

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
	if cfg.Record && nWalks > 0 && cfg.Steps > math.MaxInt32/nWalks {
		panic(fmt.Sprintf("randomwalk: trail of %d rows × %d walks overflows int32 offsets", cfg.Steps, nWalks))
	}
	res := &Result{steps: cfg.Steps, g: g}
	if cfg.Record {
		buf := make([]int32, 2*nWalks)
		res.Ends, res.sources = buf[:nWalks:nWalks], buf[nWalks:]
		copy(res.sources, sources)
	} else {
		res.Ends = make([]int32, nWalks)
	}
	copy(res.Ends, sources)
	res.Stats.PerStepMaxLoad = make([]int, cfg.Steps)

	n, nTouched, nBucket := g.N(), min(nWalks, 2*g.M()), 0
	if cfg.Correlated {
		nBucket = n + nWalks
	}
	scratch := make([]int32, nTouched+n+nBucket)
	start, half := g.CSR()
	st := &stepper{
		start:    start,
		half:     half,
		rng:      rng,
		edgeLoad: make([]int64, 2*g.M()), // directed: 2*id + dir
		touched:  scratch[:nTouched],
		tokensAt: scratch[nTouched : nTouched+n],
	}
	if cfg.Correlated {
		st.bucketEnd, st.bucketTok = scratch[nTouched+n:nTouched+2*n], scratch[nTouched+2*n:]
	}
	for _, s := range sources {
		st.tokensAt[s]++
	}
	res.noteOccupancy(st.tokensAt)
	if cfg.Probe != nil {
		cfg.Probe.RunStart(congest.RunInfo{Name: cfg.TraceName, Nodes: n, Edges: g.M()})
	}

	// The trail's width is fixed once per run, and one generic walk loop
	// runs every width; a run without Record keeps no trail at all.
	switch delta := g.MaxDegree(); {
	case !cfg.Record || delta <= math.MaxUint8:
		walk[uint8](res, st, cfg, 2*delta)
	case delta <= math.MaxUint16:
		walk[uint16](res, st, cfg, 2*delta)
	default:
		walk[uint32](res, st, cfg, 2*delta)
	}
	if cfg.Probe != nil {
		cfg.Probe.RunEnd(res.Stats.Rounds, nil)
	}
	return res
}

// walk runs Run's steps with a trail of width T, stepping Ends in place.
func walk[T width](res *Result, st *stepper, cfg Config, twoDelta int) {
	at, nWalks := res.Ends, len(res.Ends)
	var record moves[T]
	if cfg.Record {
		record = make(moves[T], cfg.Steps*nWalks)
		res.trail = record
	}
	var inboxBuf []int // per-node occupancy copy handed to the probe
	if cfg.Probe != nil {
		inboxBuf = make([]int, len(st.tokensAt))
	}
	for step := 0; step < cfg.Steps; step++ {
		var row []T
		if record != nil {
			row = record[step*nWalks : (step+1)*nWalks]
		}
		switch {
		case cfg.Correlated:
			stepCorrelated(st, cfg.Kind, at, row, twoDelta)
		case cfg.Kind == spectral.Lazy:
			stepLazy(st, at, row)
		default:
			stepRegular(st, at, row, twoDelta)
		}

		crossed := st.touched[:st.nTouched]
		maxLoad, hops := 1, 0 // a phase takes at least one round even if all tokens stayed
		for _, slot := range crossed {
			load := int(st.edgeLoad[slot])
			hops += load
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
				Delivered:    hops,
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
}

func (r *Result) noteOccupancy(tokensAt []int32) {
	for v, c := range tokensAt {
		if int(c) > r.Stats.MaxTokensAtNode {
			r.Stats.MaxTokensAtNode = int(c)
		}
		if d := r.g.Degree(v); d > 0 {
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

// Paths replays the walks keep lists (nil = all) from their sources
// through the trail and returns their trajectories, in that order, in one
// arena. A caller that keeps only a fraction of the walks it ran — as the
// overlay builders do — pays for that fraction only.
func (r *Result) Paths(keep []int) [][]int32 {
	keep = r.kept(keep)
	length := r.steps + 1
	arena := make([]int32, len(keep)*length)
	paths := make([][]int32, len(keep))
	for k, i := range keep {
		paths[k] = arena[k*length : (k+1)*length : (k+1)*length]
		paths[k][0] = r.sources[i]
	}
	// Step-major, so each step's slice of the trail is read in one pass.
	for s := 1; s < length; s++ {
		for k, i := range keep {
			at := k*length + s
			arena[at] = r.next(s-1, i, arena[at-1])
		}
	}
	return paths
}

// next returns the node walk i moves to in step s+1 from u, the node it
// occupied after s steps.
func (r *Result) next(s, i int, u int32) int32 {
	if off, moved := r.trail.hop(s*len(r.Ends) + i); moved {
		return r.g.Neighbors(int(u))[off].To
	}
	return u
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
// §3.1.1 for informing sources of their endpoints. A reverse step loads
// edges exactly as its forward step did in the opposite direction, so the
// kept walks are replayed forward from their sources and each step's
// reverse hops are charged as they are found; the total is the same sum of
// per-step maxima in either order. Loads are counted per (from, to) node
// pair, so parallel edges between the same pair share one load.
func (r *Result) ReverseDeliveryRounds(keep []int) int {
	keep = r.kept(keep)
	if len(keep) == 0 {
		return 0
	}
	at := make([]int32, len(keep))
	for k, i := range keep {
		at[k] = r.sources[i]
	}
	start, _ := r.g.CSR()
	load := make([]int32, 2*r.g.M()) // per half-edge, cleared via touched
	touched := make([]int32, 0, min(len(keep), len(load)))
	rounds := 0
	for s := 0; s < r.steps; s++ {
		maxLoad := int32(1)
		for k, i := range keep {
			u := at[k]
			v := r.next(s, i, u)
			if v == u {
				continue
			}
			at[k] = v
			// The reverse hop v → u, charged to v's port to u
			// (graph.Graph.Port) so parallel edges share one load.
			p := start[v] + int32(r.g.Port(int(v), int(u)))
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
