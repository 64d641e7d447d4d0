package mstbase

import (
	"fmt"
	"math"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// This file implements synchronous Borůvka/GHS as genuine node programs
// on the CONGEST simulator — every fragment-ID exchange, candidate
// convergecast, decision downcast, merge request and adoption wave is an
// actual O(log n)-bit message crossing an actual edge, and the round
// count is whatever the simulator measures. It is the full-fidelity
// counterpart of the charged-cost GHS model above and the textbook
// O(n log n) synchronous algorithm: iterations run in fixed windows of
// Θ(n) rounds, inside which the phases are event-driven.
//
// Window layout (local offset ℓ within a window of length 3n+6):
//
//	ℓ = 0                every node sends its fragment ID to all neighbors
//	ℓ ∈ [1, n+1)         MWOE candidates convergecast up the fragment tree
//	ℓ = n+1              fragment roots open the decision downcast
//	ℓ ∈ (n+1, 3n+6)      decisions flood down; chosen-edge owners send
//	                     merge requests; the higher-ID endpoint of each
//	                     mutually-chosen (core) edge starts the adoption
//	                     wave that re-roots the merged fragment
//
// A fragment whose root sees no outgoing edge spans the whole graph; its
// "none" decision makes every node halt at the window boundary.
//
// A window's phases end long before its last round, and a node with
// nothing queued promises to sleep to the next boundary (Ctx.SleepUntil):
// the engines then count the window's idle tail instead of stepping it, so
// the 3n+6 rounds cost rounds but no host time.
//
// The same program runs with and without faults. Every message carries its
// window index, and a node discards stragglers from other windows, counts
// one report per port, stalls a window it finds inconsistent and heals
// label splits at the boundary. A fault-free run never trips any of these
// defences, so they change nothing there.

// ghsCandidate is an MWOE candidate: the edge's weight and endpoints
// (inside node first). A +Inf weight encodes "no outgoing edge".
type ghsCandidate struct {
	W    float64
	X, Y int32
}

func (c ghsCandidate) better(o ghsCandidate) bool {
	if c.W != o.W {
		return c.W < o.W
	}
	if c.X != o.X {
		return c.X < o.X
	}
	return c.Y < o.Y
}

// Message kinds (mstbase's range of congest.Kind starts at 32). A
// fragment ID rides in A; a candidate's weight bits ride in W and its
// endpoints in A and B; a merge request has no fields. Every record
// carries the sender's window index in Win, so a delayed message
// straggling across a window boundary is recognized and discarded instead
// of corrupting the next window's counters. The discard matches fault-free
// semantics: the boundary step never reads its inbox, so a message
// crossing a boundary is already lost.
const (
	kindGHSFragID congest.Kind = 33 + iota
	kindGHSReport
	kindGHSDecision
	kindGHSMergeReq
	kindGHSAdopt
)

// GHSLayouts is the GHS records' byte form: the int32 words as zig-zag
// varints (a "none" candidate's endpoints are −1), and a candidate's
// weight bits as a 64-bit zig-zag varint.
var GHSLayouts = []congest.Layout{
	{Kind: kindGHSFragID, Win: congest.FieldInt32, A: congest.FieldInt32},
	{Kind: kindGHSReport, Win: congest.FieldInt32, A: congest.FieldInt32, B: congest.FieldInt32, W: congest.FieldInt64},
	{Kind: kindGHSDecision, Win: congest.FieldInt32, A: congest.FieldInt32, B: congest.FieldInt32, W: congest.FieldInt64},
	{Kind: kindGHSMergeReq, Win: congest.FieldInt32},
	{Kind: kindGHSAdopt, Win: congest.FieldInt32, A: congest.FieldInt32},
}

func ghsFragMessage(kind congest.Kind, frag int32) congest.Message {
	return congest.Message{Kind: kind, A: frag}
}

func ghsCandMessage(kind congest.Kind, c ghsCandidate) congest.Message {
	return congest.Message{Kind: kind, A: c.X, B: c.Y, W: math.Float64bits(c.W)}
}

// ghsCandOf unpacks the candidate of a report or decision record.
func ghsCandOf(m congest.Message) ghsCandidate {
	return ghsCandidate{W: math.Float64frombits(m.W), X: m.A, Y: m.B}
}

// ghsNode is the per-node program state.
type ghsNode struct {
	window int // rounds per Borůvka window, ghsWindow(n)

	frag       int32
	parentPort int    // -1 at fragment roots
	treePort   []bool // MST edges chosen so far (ports)
	// chosen collects the MST edge IDs this node selected as the owning
	// (inside) endpoint. Recording is per node — never into shared run
	// state — so concurrent Steps of several parts stay race-free;
	// GHSNetwork aggregates after the run.
	chosen []int

	// Per-window scratch, reset at ℓ = 0.
	nbrFrag     []int32
	gotFrag     int
	childWait   int
	bestCand    ghsCandidate
	reported    bool
	decided     bool
	decision    ghsCandidate
	sentMerge   bool
	mergedPort  []bool // ports that received/sent a merge request
	adopted     bool
	newParent   int
	newFrag     int32
	complete    bool
	pendingSend []pendingMsg
	usedPort    []bool // flush scratch: all false between calls

	// Fault defences, inert on fault-free runs. curWin/lastWin track the
	// window index so messages can be stamped and a boundary missed while
	// crashed can be detected. poisoned marks a window in which this node
	// observed an inconsistency (label split across a tree edge, report
	// from an unexpected port, recovery mid-window): a poisoned node
	// abstains from reporting, which stalls its fragment's decision for
	// the window — the window retries cleanly after the next boundary
	// instead of committing a corrupt choice.
	// repairFrag heals label splits: the largest conflicting fragment ID
	// seen across a tree edge is adopted at the next boundary, converging
	// a split component back to a single label one tree hop per window.
	curWin     int32
	lastWin    int32
	poisoned   bool
	repairFrag int32
	gotReport  []bool // per-port report dedup
}

type pendingMsg struct {
	port    int
	payload congest.Message
}

func noneCandidate() ghsCandidate {
	return ghsCandidate{W: math.Inf(1), X: -1, Y: -1}
}

func (p *ghsNode) Init(ctx *congest.Ctx) {
	p.frag = int32(ctx.ID())
	p.parentPort = -1
	p.treePort = make([]bool, ctx.Degree())
	p.mergedPort = make([]bool, ctx.Degree())
	p.usedPort = make([]bool, ctx.Degree())
	p.gotReport = make([]bool, ctx.Degree())
	p.nbrFrag = make([]int32, ctx.Degree())
	p.resetWindow()
}

func (p *ghsNode) resetWindow() {
	for i := range p.nbrFrag {
		p.nbrFrag[i] = -1
	}
	p.gotFrag = 0
	p.childWait = 0
	for port, tree := range p.treePort {
		if tree && port != p.parentPort {
			p.childWait++
		}
	}
	p.bestCand = noneCandidate()
	p.reported = false
	p.decided = false
	p.sentMerge = false
	clear(p.mergedPort)
	p.adopted = false
	p.newParent = -1
	p.newFrag = -1
	p.pendingSend = p.pendingSend[:0]
	p.poisoned = false
	p.repairFrag = -1
	clear(p.gotReport)
}

// send stamps a message with this node's window and queues it; at most
// one per port is flushed per round, which keeps the program within
// CONGEST capacity even when phases abut. The queue empties at every
// window boundary, so a message never leaves under a stale stamp.
func (p *ghsNode) send(port int, payload congest.Message) {
	payload.Win = p.curWin
	p.pendingSend = append(p.pendingSend, pendingMsg{port: port, payload: payload})
}

func (p *ghsNode) flush(ctx *congest.Ctx) {
	if len(p.pendingSend) == 0 {
		return
	}
	rest := p.pendingSend[:0]
	for _, m := range p.pendingSend {
		if p.usedPort[m.port] {
			rest = append(rest, m)
			continue
		}
		p.usedPort[m.port] = true
		ctx.Send(m.port, m.payload)
	}
	p.pendingSend = rest
	clear(p.usedPort)
}

func (p *ghsNode) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	w := p.window
	offset := (ctx.Round() - 1) % w
	p.curWin = int32((ctx.Round() - 1) / w)

	if offset == 0 {
		// Window boundary: commit the previous window's merge, halt if
		// the graph is spanned, then open the new window. Node 0 marks
		// the boundary for the phase timeline (it steps until the end:
		// every node halts at the same boundary, after the spanning
		// fragment's "none" decision floods).
		if ctx.ID() == 0 && ctx.Tracing() {
			ctx.Mark(fmt.Sprintf("window %d", (ctx.Round()-1)/w))
		}
		p.commitWindow(ctx)
		if p.complete {
			ctx.Halt()
			return
		}
		p.resetWindow()
		p.lastWin = p.curWin
		for port := 0; port < ctx.Degree(); port++ {
			p.send(port, ghsFragMessage(kindGHSFragID, p.frag))
		}
		p.flush(ctx)
		if ctx.Degree() > 0 { // a lone node reports at ℓ = 1 with nothing heard
			p.sleep(ctx)
		}
		return
	}

	if p.curWin != p.lastWin {
		// A crash carried this node across a window boundary: its scratch
		// still describes the old window and its neighbors never got its
		// fragment ID. Commit what the old window concluded, resync, and
		// sit the rest of this window out — the neighborhood stalls on the
		// missing fragment ID anyway and retries at the next boundary.
		p.commitWindow(ctx)
		if p.complete {
			ctx.Halt()
			return
		}
		p.resetWindow()
		p.lastWin = p.curWin
		p.poisoned = true
	}

	for _, in := range inbox {
		if in.Payload.Win != p.curWin {
			continue // straggler from another window
		}
		p.handle(ctx, in)
	}
	p.maybeReport(ctx, offset)
	p.flush(ctx)
	p.sleep(ctx)
}

// sleep promises, when nothing is queued, that this node idles until the
// next window boundary unless a message arrives: every step inside a
// window acts on what its inbox brings, and the report test it ends with
// (maybeReport) reads only state that messages change, so an empty-inbox
// step repeats the previous step's no-op. The engine then skips a window's
// idle tail instead of stepping it.
func (p *ghsNode) sleep(ctx *congest.Ctx) {
	if len(p.pendingSend) == 0 {
		w := p.window
		ctx.SleepUntil((ctx.Round()-1)/w*w + w + 1)
	}
}

// commitWindow applies the previous window's merge outcome and the label
// repair: a node that saw a larger fragment ID across one of its tree
// edges adopts it, converging a label-split component back to one ID a
// tree hop per window.
func (p *ghsNode) commitWindow(ctx *congest.Ctx) {
	if p.adopted {
		p.frag = p.newFrag
		p.parentPort = p.newParent
		for port, m := range p.mergedPort {
			if m {
				p.treePort[port] = true
			}
		}
	}
	if p.repairFrag > p.frag {
		p.frag = p.repairFrag
	}
}

func (p *ghsNode) handle(ctx *congest.Ctx, in congest.Inbound) {
	port, msg := int(in.Port), in.Payload
	switch msg.Kind {
	case kindGHSFragID:
		frag := msg.A
		// Count each port once: fault-free every neighbor sends exactly
		// one ID per window, so this is a no-op; under duplication it
		// keeps gotFrag honest.
		if p.nbrFrag[port] == -1 {
			p.gotFrag++
		}
		p.nbrFrag[port] = frag
		if p.treePort[port] && frag != p.frag {
			// Label split across a committed tree edge (an adoption wave
			// was cut short by a fault). Stall this window and heal
			// toward the larger label at the next boundary.
			p.poisoned = true
			if frag > p.repairFrag {
				p.repairFrag = frag
			}
		}
	case kindGHSReport:
		if !p.treePort[port] || port == p.parentPort {
			// A report from a port this node does not consider a child
			// edge: tree-topology asymmetry left by a fault. Ignore it
			// and stall rather than corrupt childWait.
			p.poisoned = true
			return
		}
		if p.gotReport[port] {
			return // duplicate
		}
		p.gotReport[port] = true
		if cand := ghsCandOf(msg); cand.better(p.bestCand) {
			p.bestCand = cand
		}
		p.childWait--
	case kindGHSDecision:
		if port != p.parentPort {
			// Fault-free, decisions only flow parent → child.
			p.poisoned = true
			return
		}
		p.applyDecision(ctx, ghsCandOf(msg))
	case kindGHSMergeReq:
		p.mergedPort[port] = true
		// If the adoption wave already passed through this node, the
		// late-arriving subtree behind this request must be flooded too.
		if p.adopted {
			p.send(port, ghsFragMessage(kindGHSAdopt, p.newFrag))
		}
		if p.sentMerge && p.decision.Y == in.From && int(p.decision.X) == ctx.ID() {
			// Mutual choice: this edge is the core. The higher-ID
			// endpoint becomes the new fragment root.
			if ctx.ID() > int(in.From) {
				p.startAdoption(ctx)
			}
		}
	case kindGHSAdopt:
		if p.adopted {
			return
		}
		p.adopted = true
		p.newFrag = msg.A
		p.newParent = port
		p.mergedPort[port] = true
		p.forwardAdoption(ctx, port)
	default:
		congest.PanicUnknownKind("mstbase: GHS", ctx, in)
	}
}

// maybeReport sends this node's aggregated candidate to its parent once
// all fragment children reported and all neighbor fragment IDs are known.
func (p *ghsNode) maybeReport(ctx *congest.Ctx, offset int) {
	if p.reported || offset < 1 || p.gotFrag < ctx.Degree() || p.childWait > 0 {
		return
	}
	if p.poisoned {
		// This window's counters are suspect: abstain. The missing report
		// stalls the fragment's decision, and the window retries after
		// the next boundary instead of committing a corrupt choice.
		return
	}
	p.reported = true
	// Fold in the local candidate: the lightest incident edge leaving
	// the fragment.
	for port := 0; port < ctx.Degree(); port++ {
		if p.nbrFrag[port] == p.frag || p.nbrFrag[port] == -1 {
			continue
		}
		cand := ghsCandidate{
			W: ctx.EdgeWeight(port),
			X: int32(ctx.ID()),
			Y: int32(ctx.NeighborID(port)),
		}
		if cand.better(p.bestCand) {
			p.bestCand = cand
		}
	}
	if p.parentPort >= 0 {
		p.send(p.parentPort, ghsCandMessage(kindGHSReport, p.bestCand))
		return
	}
	// Root: decide and open the downcast.
	p.applyDecision(ctx, p.bestCand)
}

// applyDecision records the fragment's MWOE, forwards it down the tree,
// and triggers the merge request if this node owns the chosen edge.
func (p *ghsNode) applyDecision(ctx *congest.Ctx, cand ghsCandidate) {
	if p.decided {
		return
	}
	p.decided = true
	p.decision = cand
	for port, tree := range p.treePort {
		if tree && port != p.parentPort {
			p.send(port, ghsCandMessage(kindGHSDecision, cand))
		}
	}
	if math.IsInf(cand.W, 1) {
		// No outgoing edge: the fragment spans the graph.
		p.complete = true
		return
	}
	if int(cand.X) == ctx.ID() {
		for port := 0; port < ctx.Degree(); port++ {
			if ctx.NeighborID(port) == int(cand.Y) {
				p.sentMerge = true
				// The peer's request may already have arrived (it can
				// decide earlier): detect the mutual core edge now.
				mutual := p.mergedPort[port]
				p.mergedPort[port] = true
				p.chosen = append(p.chosen, ctx.EdgeID(port))
				p.send(port, congest.Message{Kind: kindGHSMergeReq})
				if mutual && ctx.ID() > int(cand.Y) {
					p.startAdoption(ctx)
				}
				// If the adoption wave already passed this node, it
				// must be extended over the just-marked chosen edge.
				if p.adopted {
					p.send(port, ghsFragMessage(kindGHSAdopt, p.newFrag))
				}
				break
			}
		}
	}
}

// startAdoption makes this node the merged fragment's root and floods the
// new fragment ID over tree and merge edges.
func (p *ghsNode) startAdoption(ctx *congest.Ctx) {
	if p.adopted {
		return
	}
	p.adopted = true
	p.newFrag = int32(ctx.ID())
	p.newParent = -1
	p.forwardAdoption(ctx, -1)
}

func (p *ghsNode) forwardAdoption(ctx *congest.Ctx, fromPort int) {
	for port := 0; port < ctx.Degree(); port++ {
		if port == fromPort {
			continue
		}
		if p.treePort[port] || p.mergedPort[port] {
			p.send(port, ghsFragMessage(kindGHSAdopt, p.newFrag))
		}
	}
}

// ghsWindow is the length of one Borůvka iteration window on n nodes
// (layout above) — the only place the formula is written down.
func ghsWindow(n int) int { return 3*n + 6 }

// GHSIterations converts a node-program GHS round count on n nodes into
// the number of Borůvka windows it spanned.
func GHSIterations(n, rounds int) int {
	w := ghsWindow(n)
	return (rounds + w - 1) / w
}

// FaultyMSTResult extends Result with the retry accounting of a faulty
// run (workloads.RunGHSFaults). Rounds and Iterations accumulate over all
// attempts.
type FaultyMSTResult struct {
	Result
	// Attempts is the number of network runs executed (1 = the first
	// attempt already produced the MST).
	Attempts int
	// Recovered reports whether the final attempt's edge set is exactly
	// the MST. When false, Edges and Weight are zero — the attempt budget
	// ran out before the algorithm converged.
	Recovered bool
	// Faults aggregates the injected fault events over all attempts.
	Faults faults.Counts
}

// GHSPrograms returns the per-node synchronous Borůvka/GHS programs for g
// and their round budget. The programs are the same with or without
// faults; a plan with any rule (nil = none) only stretches the budget:
// faulted windows stall and retry, delays stretch phases, and crashed
// nodes sit out until recovery. Run to completion with Run (not
// RunUntilQuiet); collect each node's chosen MST edges afterwards with
// GHSChosenEdges and reduce them with GHSTreeEdges.
func GHSPrograms(g *graph.Graph, plan *faults.Plan) (programs []congest.Program, maxRounds int) {
	window := ghsWindow(g.N())
	programs = make([]congest.Program, g.N())
	for v := range programs {
		programs[v] = &ghsNode{window: window}
	}
	iterBudget := 2*log2int(g.N()) + 4
	if plan != nil && !plan.Empty() {
		return programs, window*(iterBudget+6) + plan.MaxDelay() + plan.RecoverySlack()
	}
	return programs, window*iterBudget + 2
}

// GHSNetwork runs the node-program synchronous Borůvka on g and returns
// the MST with the simulator-measured round count. It is the one
// in-process entry point: opts selects the engine and attaches probe,
// metrics registry and fault plan (see congest.Options). The probe sees
// every round's delivery profile plus a phase mark per Borůvka window,
// emitted by node 0 at each window boundary. The result — tree, rounds,
// message-level schedule — is bit-identical for every worker count.
// Weights should be distinct. Restarting a run a fault plan wrecked is
// workloads.RunGHSFaults' job, over any transport.
func GHSNetwork(g *graph.Graph, src *rngutil.Source, opts congest.Options) (*Result, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("mstbase: %w", graph.ErrDisconnected)
	}
	programs, maxRounds := GHSPrograms(g, opts.Faults)
	rounds, err := congest.NewNetwork(g, programs, src).Configure(opts).Run(maxRounds)
	if err != nil {
		return nil, fmt.Errorf("mstbase: GHSNetwork: %w", err)
	}
	res := &Result{Rounds: rounds, Iterations: GHSIterations(g.N(), rounds)}
	res.Edges = GHSTreeEdges(g.M(), GHSChosenEdges(programs, 0, g.N()))
	res.Weight = g.TotalWeight(res.Edges)
	return res, nil
}

func log2int(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}
