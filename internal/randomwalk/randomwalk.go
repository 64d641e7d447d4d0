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
// be recomputed from its source alone. That is how the walks an overlay
// keeps become its embedded paths, without a record of every walk: one
// replay of the kept walks writes each path once, with its hops as
// canonical half-edges for the emulation schedule, and charges, in the
// same pass, running them backwards (the paper's mechanism for turning
// walk endpoints into usable overlay edges).
//
// A step counts its tokens in one int32 histogram of the arcs. A run with
// at least as many independent walks as 2m arcs plus n nodes takes the
// dense step: every token, moving or not, adds one count — to its arc or
// to its node's stay slot — chosen by masks rather than by a branch on its
// draw, and one sweep of the CSR after the step reads the loads and each
// node's tokens off the histogram. Any other run takes the touched-list
// step, which costs per moving token and sweeps nothing; both give the
// same result to the bit.
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
	// from which Result.Paths recomputes the walks it is asked for (needed
	// for reversal/embedding). When false only endpoints and statistics
	// are available. Correlated walks cannot be recorded.
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
// Paths recomputes walks from. A run without Record has no paths at all.
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
	// hist counts this step's tokens by where they went: hist[arc] the
	// crossings of a directed edge and, in a dense step only, hist[2m+v]
	// the tokens that stayed at node v.
	hist []int32
	// touched[:nTouched] lists the non-zero arcs of a touched-list step,
	// so they can be read and cleared without sweeping all 2m.
	touched  []int32
	nTouched int
	// tokensAt[v] counts the tokens at v: kept up to date by a
	// touched-list step, read off the histogram after a dense one.
	tokensAt []int32
	// bucketEnd and bucketTok are the correlated step's counting sort,
	// reused across steps.
	bucketEnd, bucketTok []int32
}

// cross moves one token from v over half-edge p and returns its new node.
func (st *stepper) cross(v, p int32) int32 {
	h := st.half[p]
	if st.hist[h.Arc] == 0 {
		st.touched[st.nTouched] = h.Arc
		st.nTouched++
	}
	st.hist[h.Arc]++
	st.tokensAt[v]--
	st.tokensAt[h.To]++
	return h.To
}

// stepIndependent advances every token step s+1 in place, each by its own
// draw, and keeps the touched list and tokensAt as it goes.
func (st *stepper) stepIndependent(d draws, at []int32, s int) {
	start := st.start
	for i, v := range at {
		lo := start[v]
		if off := d.hop(d.draw(i, s), start[v+1]-lo); off >= 0 {
			at[i] = st.cross(v, lo+off)
		}
	}
}

// tally reads a touched-list step's loads off the listed arcs and clears
// them: the most loaded arc (at least one round, even if every token
// stayed) and the hop count. With edgeLoad non-nil it also writes every
// arc's load there for the probe.
func (st *stepper) tally(edgeLoad []int64) (maxLoad, hops int) {
	clear(edgeLoad)
	maxLoad = 1
	for _, a := range st.touched[:st.nTouched] {
		load := int(st.hist[a])
		hops += load
		maxLoad = max(maxLoad, load)
		if edgeLoad != nil {
			edgeLoad[a] = int64(load)
		}
		st.hist[a] = 0
	}
	st.nTouched = 0
	return maxLoad, hops
}

// noHalf stands in for the CSR of a graph without edges, so a dense step
// always has a half-edge to read; no token ever crosses it.
var noHalf = []graph.Halfedge{{}}

// stepDense advances every token step s+1 in place, each by its own draw,
// with no branch on the draw: multiply-shift picks a slot as draws.hop
// does, a mask of all ones when the token moves (a lazy walk's odd coin
// and a slot below the degree) or of zeros when it stays selects the
// half-edge or the stay, and each token adds one count to the histogram —
// its arc's slot or its node's stay slot. The loads and tokensAt are read
// off afterwards by settle.
func (st *stepper) stepDense(d draws, at []int32, s int) {
	start, half, hist := st.start, st.half, st.hist
	stay := int32(len(half)) // node v's stay slot is hist[2m+v]
	if len(half) == 0 {
		half = noHalf
	}
	col := rngutil.MixColumn(d.key, uint64(s))
	for i, v := range at {
		lo := start[v]
		deg := uint64(start[v+1] - lo)
		x := col.At(uint64(i))
		// moves is 1 when the token moves: a lazy walk reduces by its
		// degree and moves on an odd draw, a 2Δ-regular walk reduces by
		// 2Δ; either moves on a slot below the degree. The branch is on
		// the run's walk kind, never on the draw.
		var slot, moves uint64
		if d.lazy {
			slot, _ = bits.Mul64(x, deg)
			moves = (slot - deg) >> 63 & x & 1
		} else {
			slot, _ = bits.Mul64(x, d.twoDelta)
			moves = (slot - deg) >> 63
		}
		move := -int32(moves) // all ones when the token moves
		h := half[(lo+int32(slot))&move]
		to := v ^ (v^h.To)&move
		bin := stay + v
		hist[bin^(bin^h.Arc)&move]++
		at[i] = to
	}
}

// settle reads a dense step off the histogram in one sweep of the CSR and
// clears it: the most loaded arc (at least one round, even if every token
// stayed), the hop count, and each node's tokens — its stay slot plus the
// loads of the arcs into it, hist[h.Arc^1] over its row. With edgeLoad
// non-nil it also copies every arc's load there for the probe.
func (st *stepper) settle(edgeLoad []int64) (maxLoad, hops int) {
	arcs, stays := st.hist[:len(st.half)], st.hist[len(st.half):]
	maxLoad = 1
	lo := st.start[0]
	for v, hi := range st.start[1:] {
		tokens := stays[v]
		for _, h := range st.half[lo:hi] {
			load := int(arcs[h.Arc])
			hops += load
			maxLoad = max(maxLoad, load)
			tokens += arcs[h.Arc^1]
		}
		st.tokensAt[v] = tokens
		lo = hi
	}
	if edgeLoad != nil {
		for a, load := range arcs {
			edgeLoad[a] = int64(load)
		}
	}
	clear(st.hist)
	return maxLoad, hops
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
// the sources' copy when recording), the per-step loads and one int32
// scratch array for the step state — the histogram, tokensAt and, for a
// touched-list or correlated step, its lists. A Probe adds its occupancy
// and int64 edge-load copies. The walks read the graph's own CSR
// (graph.Graph.CSR) and copy none of it, and keep nothing per step. The
// package's allocation test holds Run to this figure.
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
//
// An independent run with at least as many walks as histogram slots
// (2m arcs plus n stays) takes the dense step (stepDense, then settle's
// sweep of the CSR); a smaller one and a correlated one take the
// touched-list step. Both give the same result to the bit. Where the two
// cost the same moves with the graph, between a quarter and a half of a
// walk per slot on the shapes measured, and at an eighth the sweep makes
// the dense step up to 1.6× slower; at one walk per slot it is the faster
// on every shape, so the rule asks for one (BenchmarkRun times both
// sides).
func Run(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *Result {
	return run(g, sources, cfg, rng, !cfg.Correlated && len(sources) >= 2*g.M()+g.N())
}

// run is Run with the step chosen by the caller: dense selects stepDense
// for an independent run, and the tests drive both steps through it.
func run(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand, dense bool) *Result {
	if cfg.Steps < 0 {
		panic("randomwalk: negative step count")
	}
	if cfg.Kind != spectral.Lazy && cfg.Kind != spectral.Regular {
		panic(fmt.Sprintf("randomwalk: unsupported walk kind %v", cfg.Kind))
	}
	if cfg.Record && cfg.Correlated {
		panic("randomwalk: Config.Record with Config.Correlated: a correlated hop depends on every token at the node, so its walks have no paths")
	}
	dense = dense && !cfg.Correlated
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

	// One int32 allocation: the histogram (with n stay slots for a dense
	// step), tokensAt, then a touched-list step's list and a correlated
	// step's buckets.
	n, nArcs := g.N(), 2*g.M()
	nHist, nTouched, nBucket := nArcs, min(nWalks, nArcs), 0
	if dense {
		nHist, nTouched = nArcs+n, 0
	}
	if cfg.Correlated {
		nBucket = n + nWalks
	}
	scratch := make([]int32, nHist+n+nTouched+nBucket)
	start, half := g.CSR()
	st := &stepper{
		start:    start,
		half:     half,
		hist:     scratch[:nHist:nHist],
		tokensAt: scratch[nHist : nHist+n : nHist+n],
	}
	rest := scratch[nHist+n:]
	st.touched, rest = rest[:nTouched:nTouched], rest[nTouched:]
	if cfg.Correlated {
		st.bucketEnd, st.bucketTok = rest[:n:n], rest[n:]
	}
	for _, s := range sources {
		st.tokensAt[s]++
	}
	res.noteOccupancy(st.tokensAt)
	var inboxBuf []int   // per-node occupancy copy handed to the probe
	var edgeLoad []int64 // per-arc load copy handed to the probe
	if cfg.Probe != nil {
		cfg.Probe.RunStart(congest.RunInfo{Name: cfg.TraceName, Nodes: n, Edges: g.M()})
		inboxBuf = make([]int, n)
		edgeLoad = make([]int64, nArcs) // directed: 2*id + dir
	}

	at := res.Ends
	for step := 0; step < cfg.Steps; step++ {
		var maxLoad, hops int
		switch {
		case dense:
			st.stepDense(res.draws, at, step)
			maxLoad, hops = st.settle(edgeLoad)
		case cfg.Correlated:
			st.stepCorrelated(cfg.Kind, at, twoDelta, rng)
			maxLoad, hops = st.tally(edgeLoad)
		default:
			st.stepIndependent(res.draws, at, step)
			maxLoad, hops = st.tally(edgeLoad)
		}
		res.Stats.PerStepMaxLoad[step] = maxLoad
		res.Stats.Rounds += maxLoad
		res.noteOccupancy(st.tokensAt)
		if cfg.Probe != nil {
			// One "round" per walk step, congestion as Lemma 2.5 counts it.
			rec := &congest.RoundRecord{
				Round:        step + 1,
				Delivered:    hops,
				Active:       nWalks,
				MaxInboxNode: -1,
				MaxEdgeLoad:  int64(maxLoad),
				InboxSizes:   inboxBuf,
				EdgeLoad:     edgeLoad,
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

// Paths recomputes the walks keep lists (nil = all) from their sources and
// returns their trajectories, in that order, in one arena, with their
// hops as link runs and the CONGEST rounds that running them backwards
// costs — the mechanism of §3.1.1 for informing sources of their
// endpoints. paths[k][s] is the node walk keep[k] occupies after s steps;
// equal consecutive entries are lazy steps. links[k] is the same walk's
// hops without its stays, each the canonical half-edge of its ordered
// node pair (graph.Graph.PairHalfedges): the runs
// pathsched.ScheduleBothWays schedules. A caller that keeps only a
// fraction of the walks it ran — as the overlay builders do — pays for
// that fraction only.
//
// The kept walks advance together, each through its own draws, and every
// step is charged as it is written: reverse step s costs its most loaded
// directed edge, at least one round, and an empty keep costs none. A hop
// u → v is reversed as v → u and loaded on its canonical half-edge, one
// key per ordered node pair, so parallel edges share one load.
func (r *Result) Paths(keep []int) (paths, links [][]int32, reverseRounds int) {
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
	paths = make([][]int32, len(keep))
	for k, i := range keep {
		paths[k] = arena[k*length : (k+1)*length : (k+1)*length]
		paths[k][0] = r.sources[i]
	}
	links = make([][]int32, len(keep))
	if len(keep) == 0 {
		return paths, links, 0
	}
	// keys[k*steps+s−1] is walk keep[k]'s load key in step s: its
	// canonical half-edge, −1 for a stay. The arena lives apart from the
	// paths, which an overlay keeps, and ends as the runs.
	keys := make([]int32, len(keep)*r.steps)
	// A sweep advances every kept walk a block of steps: each walk takes
	// them alone, writing its path and its keys contiguously, and the
	// block's steps are then charged in order. A block is 16 steps, one
	// cache line of a path.
	block := min(16, r.steps)
	start, half := r.g.CSR()
	canon, _ := r.g.PairHalfedges()
	load := make([]int32, len(half)) // per half-edge, cleared via touched
	touched := make([]int32, 0, min(len(keep), len(half)))
	for s0 := 1; s0 < length; s0 += block {
		steps := min(block, length-s0)
		for k, i := range keep {
			p, key := paths[k], keys[k*r.steps:(k+1)*r.steps]
			for s := s0; s < s0+steps; s++ {
				u := p[s-1]
				v, h := u, int32(-1)
				if off := r.draws.hop(r.draws.draw(i, s-1), start[u+1]-start[u]); off >= 0 {
					v = half[start[u]+off].To
					h = canon[start[u]+off]
				}
				p[s] = v
				key[s-1] = h
			}
		}
		for s := s0; s < s0+steps; s++ {
			maxLoad := int32(1)
			for k := range keep {
				h := keys[k*r.steps+s-1]
				if h < 0 {
					continue
				}
				if load[h] == 0 {
					touched = append(touched, h)
				}
				load[h]++
				maxLoad = max(maxLoad, load[h])
			}
			reverseRounds += int(maxLoad)
			for _, h := range touched {
				load[h] = 0
			}
			touched = touched[:0]
		}
	}
	// A walk's run is its keys with the stays squeezed out, in place.
	for k := range keep {
		key, n := keys[k*r.steps:(k+1)*r.steps], 0
		for _, h := range key {
			key[n] = h
			n += int(^h >> 31 & 1) // 1 unless h is a stay's −1
		}
		links[k] = key[:n:n]
	}
	return paths, links, reverseRounds
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
