// Package randomwalk runs many independent random walks in parallel on a
// graph under CONGEST edge-capacity constraints, implementing the
// scheduling of Lemmas 2.4 and 2.5 of the paper.
//
// Per walk step, every token at a node either stays (laziness) or crosses
// an incident edge. Each edge can carry one token per direction per
// CONGEST round, so executing one parallel step costs as many rounds as
// the most loaded directed edge. The engine executes walks step by step and
// measures that cost exactly. An independent walk's hop in each step is a
// pure function of (run key, walk index, step) — the node holding a token
// draws its next hop from the token's own counter — so any walk's path can
// be recomputed from its source alone. That is how walks are re-run in
// reverse (the paper's mechanism for turning walk endpoints into usable
// overlay edges) and re-used as embedded routing paths, without keeping a
// record of every walk.
package randomwalk

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
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
	// Record keeps a copy of the sources — O(walks), nothing per step —
	// from which Result.Path and Paths recompute the walks they are asked
	// for (needed for reversal/embedding). When false only endpoints and
	// statistics are available. Correlated walks cannot be recorded.
	Record bool
	// Correlated runs the walks in the negatively-correlated fashion
	// the paper sketches for the k = o(log n) regime (the full-version
	// refinement of Lemma 2.5): per step, each node deals its resident
	// tokens across its transition slots like a shuffled deck instead
	// of sampling independently, so no edge carries more than ⌈tokens/d⌉
	// of them and the additive log n congestion term disappears. Each
	// token's marginal transition distribution is unchanged. A correlated
	// hop depends on every token at the node, so such a run has no
	// per-walk paths, and Run panics if it is also asked to Record.
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
// congestion statistics and, when Config.Record was set, the sources that
// Path and Paths recompute walks from. A run without Record has no paths
// at all.
type Result struct {
	// Ends[i] is the node walk i occupies after the last step.
	Ends  []int32
	Stats Stats

	// sources is a recording run's copy of the start nodes, nil without
	// Config.Record.
	sources []int32
	draws   draws
	steps   int
	g       *graph.Graph
}

// draws is an independent run's decision rule: walk i's hop in step s+1
// depends on nothing but rngutil.Mix(key, i, s) and the degree of the node
// it stands on, so walks and steps can be visited in any order.
type draws struct {
	key      uint64
	lazy     bool
	twoDelta uint64
}

// draw is walk i's draw for step s+1.
func (d draws) draw(i, s int) uint64 { return rngutil.Mix(d.key, uint64(i), uint64(s)) }

// hop returns the offset, inside its node's CSR range, of the half-edge a
// walk with draw x crosses from a node of degree deg, or −1 when it stays.
// x is reduced by multiply-shift: a lazy walk moves on an odd x, to port
// ⌊x·deg/2⁶⁴⌋; a 2Δ-regular walk takes slot ⌊x·2Δ/2⁶⁴⌋, of which the first
// deg are the incident edges and the rest stay. On an isolated node no
// slot is an edge, so the walk stays.
func (d draws) hop(x uint64, deg int32) int32 {
	slots := d.twoDelta
	if d.lazy {
		if x&1 == 0 {
			return -1
		}
		slots = uint64(deg)
	}
	if slot, _ := bits.Mul64(x, slots); slot < uint64(deg) {
		return int32(slot)
	}
	return -1
}

// stepper is the state the per-step loops share.
type stepper struct {
	// start and half are the graph's CSR (graph.Graph.CSR).
	start []int32
	half  []graph.Halfedge
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

// stepIndependent advances every token step s+1 in place, each by its own
// draw.
func (st *stepper) stepIndependent(d draws, at []int32, s int) {
	start := st.start
	for i, v := range at {
		lo := start[v]
		if off := d.hop(d.draw(i, s), start[v+1]-lo); off >= 0 {
			at[i] = st.cross(v, lo+off)
		}
	}
}

// stepCorrelated advances every token one step in place with negative
// correlation: each node deals its resident tokens over a uniformly
// rotated "deck" of transition slots (d stay slots + d edge slots for the
// lazy walk; 2Δ−d(v) stay slots + d(v) edge slots for the 2Δ-regular
// walk), so the per-edge load is at most ⌈tokens/deck⌉ while every
// token's marginal transition stays exact.
func (st *stepper) stepCorrelated(kind spectral.WalkKind, at []int32, twoDelta int, rng *rand.Rand) {
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
			j := rng.IntN(i + 1)
			here[i], here[j] = here[j], here[i]
		}
		offset := rng.IntN(deckSize)
		for j, tok := range here {
			if slot := (offset + j) % deckSize; slot >= stayCount {
				at[tok] = st.cross(v, base+int32(slot-stayCount))
			}
		}
	}
}

// RunAllocCeiling is the heap objects one Run without a Probe allocates,
// whatever the number of walks and steps: the result, the endpoints (with
// the sources' copy when recording), the per-step loads, the edge loads
// and one int32 scratch array for the rest of the step state. The walks
// read the graph's own CSR (graph.Graph.CSR) and copy none of it, and keep
// nothing per step. The package's allocation test holds Run to this
// figure.
const RunAllocCeiling = 5

// Run executes one walk from each entry of sources (sources[i] = start
// node of walk i) for cfg.Steps parallel steps, and returns endpoints,
// congestion statistics and (with cfg.Record) the sources Paths recomputes
// walks from.
//
// Independent walks take one Uint64 from rng, the run key, and nothing
// else: walk i's hop in step s+1 is drawn from rngutil.Mix(key, i, s) (see
// draws.hop), so a walk's path does not depend on the others. Correlated
// walks draw from rng in an order that the reference test pins: steps in
// order, nodes in ID order, a Fisher–Yates shuffle of the node's tokens,
// then one deck offset. Runs are reproducible given the same rng state.
func Run(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *Result {
	if cfg.Steps < 0 {
		panic("randomwalk: negative step count")
	}
	if cfg.Kind != spectral.Lazy && cfg.Kind != spectral.Regular {
		panic(fmt.Sprintf("randomwalk: unsupported walk kind %v", cfg.Kind))
	}
	if cfg.Record && cfg.Correlated {
		panic("randomwalk: Config.Record with Config.Correlated: a correlated hop depends on every token at the node, so its walks have no paths")
	}
	nWalks := len(sources)
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
	twoDelta := 2 * g.MaxDegree()
	if !cfg.Correlated {
		res.draws = draws{key: rng.Uint64(), lazy: cfg.Kind == spectral.Lazy, twoDelta: uint64(twoDelta)}
	}

	n, nTouched, nBucket := g.N(), min(nWalks, 2*g.M()), 0
	if cfg.Correlated {
		nBucket = n + nWalks
	}
	scratch := make([]int32, nTouched+n+nBucket)
	start, half := g.CSR()
	st := &stepper{
		start:    start,
		half:     half,
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
	var inboxBuf []int // per-node occupancy copy handed to the probe
	if cfg.Probe != nil {
		cfg.Probe.RunStart(congest.RunInfo{Name: cfg.TraceName, Nodes: n, Edges: g.M()})
		inboxBuf = make([]int, n)
	}

	at := res.Ends
	for step := 0; step < cfg.Steps; step++ {
		if cfg.Correlated {
			st.stepCorrelated(cfg.Kind, at, twoDelta, rng)
		} else {
			st.stepIndependent(res.draws, at, step)
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

// Paths recomputes the walks keep lists (nil = all) from their sources,
// each walk alone through its own draws, and returns their trajectories,
// in that order, in one arena. A caller that keeps only a fraction of the
// walks it ran — as the overlay builders do — pays for that fraction only.
func (r *Result) Paths(keep []int) [][]int32 {
	if r.sources == nil {
		panic("randomwalk: paths requested from a run without Config.Record")
	}
	if keep == nil {
		keep = make([]int, len(r.Ends))
		for i := range keep {
			keep[i] = i
		}
	}
	length := r.steps + 1
	arena := make([]int32, len(keep)*length)
	paths := make([][]int32, len(keep))
	start, half := r.g.CSR()
	for k, i := range keep {
		p := arena[k*length : (k+1)*length : (k+1)*length]
		p[0] = r.sources[i]
		for s := 1; s < length; s++ {
			u := p[s-1]
			p[s] = u
			if off := r.draws.hop(r.draws.draw(i, s-1), start[u+1]-start[u]); off >= 0 {
				p[s] = half[start[u]+off].To
			}
		}
		paths[k] = p
	}
	return paths
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

// ReverseDeliveryRounds measures the CONGEST rounds needed to run walks
// backwards along paths, walks of g as Paths returns them — the mechanism
// of §3.1.1 for informing sources of their endpoints. Reverse step s moves
// each token from paths[k][s] back to paths[k][s−1] and costs its most
// loaded directed edge, at least one round; the total is the sum over
// steps, in whatever order they are visited. Loads are counted per (from,
// to) node pair, so parallel edges between the same pair share one load.
func ReverseDeliveryRounds(g *graph.Graph, paths [][]int32) int {
	steps := 0
	for _, p := range paths {
		steps = max(steps, len(p)-1)
	}
	start, _ := g.CSR()
	load := make([]int32, 2*g.M()) // per half-edge, cleared via touched
	touched := make([]int32, 0, min(len(paths), len(load)))
	rounds := 0
	for s := 1; s <= steps; s++ {
		maxLoad := int32(1)
		for _, path := range paths {
			if s >= len(path) || path[s] == path[s-1] {
				continue
			}
			// The reverse hop v → u, charged to v's port to u
			// (graph.Graph.Port) so parallel edges share one load.
			v, u := path[s], path[s-1]
			p := start[v] + int32(g.Port(int(v), int(u)))
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
