// Package pathsched schedules packets along fixed paths under CONGEST
// edge capacities and measures the exact number of rounds needed.
//
// The hierarchical embedding (§3.1) maps every virtual edge to a recorded
// path in the base graph. Delivering a batch of virtual messages therefore
// reduces to store-and-forward packet routing along fixed paths, one
// packet per directed edge per round. This package runs that process with
// synchronous FIFO queues and reports the makespan, which is the measured
// emulation cost the experiments compare against the paper's
// O(congestion + dilation)-flavored lemmas (3.1, 3.2, 3.4).
//
// A link is an ordered node pair, and there are two doors onto one FIFO
// core. Schedule takes node paths from any ID space and numbers their
// links itself; ScheduleBothWays takes a graph and link runs whose links
// are already its canonical half-edges (graph.Graph.PairHalfedges), as the
// walk replay writes them, and sends a packet each way along each. Packets
// join each round's queues in packet order, so the ids the links carry
// never move a result.
//
// The core threads every link's queue through one array: a packet's slot
// names the packet behind it, a link's slot its head, and a link's tail
// names the slot its next push writes (its own slot while it is empty), so
// a push has no branch on whether the queue was empty. A packet reads the
// link it crosses next when it is popped, into its own slot, so the reads
// of one round's arrivals do not wait on one another, and the arrivals
// are pushed there in packet order in the same loop that drains them.
package pathsched

import (
	"fmt"
	"math"
	"math/bits"

	"almostmix/internal/graph"
)

// Result summarizes one scheduling run.
type Result struct {
	// Makespan is the number of rounds until every packet reached the
	// end of its path.
	Makespan int
	// Congestion is the maximum number of packets crossing any single
	// link over the whole run (a lower bound on makespan). A link is an
	// ordered pair of path nodes, so packets on parallel edges between the
	// same pair share it.
	Congestion int
	// Dilation is the maximum path length in hops (also a lower bound).
	Dilation int
	// Delivered is the number of packets routed: len(paths), or
	// 2·len(runs) both ways.
	Delivered int
}

// Schedule routes one packet along each path and returns the measured
// costs. Paths are node-ID sequences; consecutive duplicate entries are
// skipped (lazy steps), and empty or single-node paths are delivered at
// time zero. Node IDs must be non-negative and only need to be consistent
// within the path set — this door never consults a graph, so callers
// are responsible for paths being walks of the level they schedule on.
//
// It is the node-path door: two passes give every distinct ordered node
// pair a dense link id, and the packets then run in the core
// ScheduleBothWays shares. Finding a hop's link scans the links already
// seen out of its from-node, so it costs that node's out-degree. The
// working set is a fixed number of flat int32 arrays — one entry per
// hop, a few per packet and per distinct directed link, and two per node
// ID up to the largest one used — plus the arrivals bitset, a bit per
// packet, that orders each round's arrivals.
func Schedule(paths [][]int32) Result {
	if len(paths) > math.MaxInt32 {
		panic(fmt.Sprintf("pathsched: %d packets overflow int32 packet ids", len(paths)))
	}
	// Pass 0: the node-ID range and the hop total.
	n, hops := 0, 0
	for _, p := range paths {
		for j, v := range p {
			if v < 0 {
				panic(fmt.Sprintf("pathsched: negative node id %d", v))
			}
			n = max(n, int(v)+1)
			if j > 0 && v != p[j-1] {
				hops++
			}
		}
	}
	if hops > math.MaxInt32 {
		panic(fmt.Sprintf("pathsched: %d hops overflow int32 offsets", hops))
	}

	// Pass 1: hops per from-node size that node's bucket of out-links (a
	// node has at most n distinct successors, so the bucket is capped).
	used := make([]int32, n) // hop count here, then links filled in pass 2
	for _, p := range paths {
		for j := 1; j < len(p); j++ {
			if p[j] != p[j-1] {
				used[p[j-1]]++
			}
		}
	}
	bucket := make([]int32, n+1)
	for v, c := range used {
		bucket[v+1] = bucket[v] + min(c, int32(n))
		used[v] = 0
	}
	linkTo := make([]int32, bucket[n]) // bucket entry: the link's to-node …
	linkID := make([]int32, bucket[n]) // … and its dense id, in first-seen order

	// Pass 2: one link id per hop. Path e's run is linkOf[end[e]:end[e+1]].
	linkOf := make([]int32, hops)
	end := make([]int32, len(paths)+1)
	links, h := int32(0), int32(0)
	res := Result{Delivered: len(paths)}
	for e, p := range paths {
		for j := 1; j < len(p); j++ {
			u, v := p[j-1], p[j]
			if u == v {
				continue
			}
			k, filled := bucket[u], bucket[u]+used[u]
			for k < filled && linkTo[k] != v {
				k++
			}
			if k == filled {
				linkTo[k], linkID[k] = v, links
				used[u]++
				links++
			}
			linkOf[h] = linkID[k]
			h++
		}
		end[e+1] = h
		res.Dilation = max(res.Dilation, int(h-end[e]))
	}

	crossings := make([]int32, links)
	for _, l := range linkOf {
		crossings[l]++
		res.Congestion = max(res.Congestion, int(crossings[l]))
	}
	if res.Dilation > 0 {
		res.Makespan = (&packets{arena: linkOf, end: end}).makespan(len(paths), crossings)
	}
	return res
}

// ScheduleBothWays routes two packets along each link run, one each way,
// and returns the measured costs: one round of an overlay whose edges are
// embedded along the runs' paths in g (Lemma 3.1). runs[e] is a path's
// hops as canonical half-edges of g (graph.Graph.PairHalfedges), stays
// left out, as randomwalk.Result.Paths returns them. Packet 2e reads
// runs[e] forward and packet 2e+1 backward, each hop through its reverse
// pair's half-edge, so the result is Schedule's over the node paths and
// their reversals interleaved, none of which is built.
//
// It is the run door: a link is its canonical half-edge, so the
// dense-id passes of Schedule do not run, and the queues are indexed by
// g's half-edges.
func ScheduleBothWays(g *graph.Graph, runs [][]int32) Result {
	if len(runs) > math.MaxInt32/2 {
		panic(fmt.Sprintf("pathsched: 2×%d packets overflow int32 packet ids", len(runs)))
	}
	_, twin := g.PairHalfedges()
	res := Result{Delivered: 2 * len(runs)}
	crossings := make([]int32, len(twin))
	for _, run := range runs {
		res.Dilation = max(res.Dilation, len(run))
		for _, l := range run {
			crossings[l]++
			crossings[twin[l]]++
			res.Congestion = max(res.Congestion, int(crossings[l]), int(crossings[twin[l]]))
		}
	}
	if res.Dilation > 0 {
		res.Makespan = (&packets{runs: runs, twin: twin}).makespan(2*len(runs), crossings)
	}
	return res
}

// packets is the set of packets a schedule routes, in one of the two
// doors' layouts. Schedule's packet pkt crosses the links
// arena[end[pkt]:end[pkt+1]] (runs nil). ScheduleBothWays' packet pkt
// rides runs[pkt/2]: forward when pkt is even, and backward through twin
// when it is odd. left[pkt] counts the hops the packet has still to cross.
type packets struct {
	arena, end []int32
	runs       [][]int32
	twin       []int32
	left       []int32
}

// hops is the length of packet pkt's run.
func (p *packets) hops(pkt int32) int32 {
	if p.runs == nil {
		return p.end[pkt+1] - p.end[pkt]
	}
	return int32(len(p.runs[pkt>>1]))
}

// link is the link packet pkt crosses next. A run-door packet picks its
// direction by a mask, not a branch: the packets popped in one round
// alternate between the directions at random.
func (p *packets) link(pkt int32) int32 {
	if p.runs == nil {
		return p.arena[p.end[pkt+1]-p.left[pkt]]
	}
	// back is all ones for a backward packet, which reads the run from its
	// end, each hop through twin; a forward one reads it from its start.
	run, left, back := p.runs[pkt>>1], p.left[pkt], -(pkt & 1)
	j := int32(len(run)) - left
	l := run[j^(j^(left-1))&back]
	return l ^ (l^p.twin[l])&back
}

// makespan is the store-and-forward core both doors share: it sends the
// n packets along their runs through per-link FIFO queues, links numbered
// in [0, len(tail)), and returns the number of rounds until the last
// arrives. tail is one entry per link that makespan overwrites: each door
// hands it the crossing counts it has finished reading.
func (p *packets) makespan(n int, tail []int32) int {
	links := len(tail)
	lowWords := (n + 63) / 64
	marks := make([]uint64, lowWords+(lowWords+63)/64)
	arrived := arrivals{low: marks[:lowWords], top: marks[lowWords:]}
	buf := make([]int32, 2*n+2*links+1)
	q := fifos{
		next:   buf[: n+links : n+links],
		tail:   tail,
		active: buf[n+links : n+2*links+1 : n+2*links+1],
		base:   int32(n),
	}
	p.left = buf[n+2*links+1:]
	for l := range q.tail {
		q.tail[l] = int32(n + l)
	}
	remaining := 0
	for i := range int32(n) {
		if p.left[i] = p.hops(i); p.left[i] > 0 {
			q.push(p.link(i), i)
			remaining++
		}
	}

	// Synchronous FIFO store-and-forward: every round, each directed
	// link transmits the head-of-line packet.
	rounds := 0
	for remaining > 0 {
		rounds++
		remaining -= p.popAll(&q, &arrived)
		// Arrivals join their next queue, the link popAll left in their
		// next slot, in packet order, whatever order the links were
		// visited in: runs are deterministic. top marks the non-zero
		// words of low, so a drain reads every top word and only the
		// marked low words: O(arrivals + packets/4096).
		for t, top := range arrived.top {
			arrived.top[t] = 0
			for ; top != 0; top &= top - 1 {
				w := t<<6 | bits.TrailingZeros64(top)
				for low := arrived.low[w]; low != 0; low &= low - 1 {
					pkt := int32(w<<6 | bits.TrailingZeros64(low))
					q.push(q.next[pkt], pkt)
				}
				arrived.low[w] = 0
			}
		}
	}
	return rounds
}

// popAll moves the head packet of every non-empty queue across its link
// and returns how many of them that delivered. A packet with hops left
// reads the link it crosses next as it is popped, into its own next slot
// (free while it waits in no queue), and is marked arrived; the drain
// pushes it there.
func (p *packets) popAll(q *fifos, arrived *arrivals) (delivered int) {
	busy := 0
	for _, l := range q.active[:q.nActive] {
		head := q.base + l
		pkt := q.next[head]
		q.next[head] = q.next[pkt]
		// emptied is all ones when pkt was the queue's last packet.
		emptied := -int32(uint32(q.tail[l]^pkt-1) >> 31)
		q.tail[l] ^= (q.tail[l] ^ head) & emptied
		q.active[busy] = l
		busy += int(emptied + 1)
		if p.left[pkt]--; p.left[pkt] == 0 {
			delivered++
			continue
		}
		q.next[pkt] = p.link(pkt)
		arrived.add(pkt)
	}
	q.nActive = busy
	return delivered
}

// fifos holds one FIFO of packets per link, threaded through one array:
// next[pkt] is the packet behind pkt, and next[base+l] is link l's head,
// so an empty queue is the one whose tail[l], the slot its next push
// writes, is base+l. A push is then the same two writes whether the queue
// was empty or not. A packet waits in one queue at a time, so one next
// entry per packet serves all queues. active[:nActive] lists the links
// with a non-empty queue, in no particular order; it has one spare entry,
// since a push writes its link there before it knows whether to count it.
type fifos struct {
	next, tail, active []int32
	nActive            int
	base               int32
}

func (q *fifos) push(l, pkt int32) {
	t := q.tail[l]
	q.next[t] = pkt
	q.active[q.nActive] = l
	q.nActive += int(uint32(q.base+l-t-1) >> 31) // t == base+l: l was empty
	q.tail[l] = pkt
}

// arrivals is a two-level bitset over packet ids that hands a round's
// arrivals back in ascending order without sorting them: bit pkt of low
// marks an arrived packet, and bit w of top marks a non-zero low[w].
type arrivals struct {
	low, top []uint64
}

func (a *arrivals) add(pkt int32) {
	w := pkt >> 6
	a.low[w] |= 1 << (pkt & 63)
	a.top[w>>6] |= 1 << (w & 63)
}

// Validate checks that every path is a walk of the adjacency oracle (used
// by tests and by embedding audits). adjacent(a, b) must report whether a
// and b are neighbors at the level the paths live on.
func Validate(paths [][]int32, adjacent func(a, b int32) bool) error {
	for i, p := range paths {
		for j := 1; j < len(p); j++ {
			if p[j] == p[j-1] {
				continue
			}
			if !adjacent(p[j-1], p[j]) {
				return fmt.Errorf("pathsched: path %d hop %d: %d and %d not adjacent", i, j, p[j-1], p[j])
			}
		}
	}
	return nil
}
