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
package pathsched

import (
	"fmt"
	"math"
	"math/bits"
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
	// Delivered is the number of packets routed (= len(paths)).
	Delivered int
}

// Schedule routes one packet along each path and returns the measured
// costs. Paths are node-ID sequences; consecutive duplicate entries are
// skipped (lazy steps), and empty or single-node paths are delivered at
// time zero. Node IDs must be non-negative and only need to be consistent
// within the path set — the scheduler never consults a graph, so callers
// are responsible for paths being walks of the level they schedule on.
//
// The working set is a fixed number of flat int32 arrays — one entry per
// hop, a few per packet and per distinct directed link, and two per node
// ID up to the largest one used — plus the arrivals bitset, a bit per
// packet, that orders each round's arrivals. Finding a hop's link scans
// the links already seen out of its from-node, so it costs that node's
// out-degree.
func Schedule(paths [][]int32) Result { return schedule(paths, 1) }

// ScheduleBothWays routes two packets along each path, one each way, and
// returns the measured costs: one round of an overlay whose edges are
// embedded along paths (Lemma 3.1). Packet 2e goes forward along paths[e]
// and packet 2e+1 backward, so the result is Schedule's over that
// interleaving of the paths and their reversals, none of which is copied.
func ScheduleBothWays(paths [][]int32) Result { return schedule(paths, 2) }

// schedule sends ways packets along every path, packet i along
// paths[i/ways], backward when i%ways is 1. Only passes 1 and 2 read a
// packet's direction; from there on a packet is its run of link ids.
func schedule(paths [][]int32, ways int) Result {
	if len(paths) > math.MaxInt32/ways {
		panic(fmt.Sprintf("pathsched: %d×%d packets overflow int32 packet ids", ways, len(paths)))
	}
	packets := ways * len(paths)
	res := Result{Delivered: packets}

	// Pass 0: the node-ID range, the hop total and the dilation.
	n, hops := 0, 0
	for _, p := range paths {
		h := 0
		for j, v := range p {
			if v < 0 {
				panic(fmt.Sprintf("pathsched: negative node id %d", v))
			}
			n = max(n, int(v)+1)
			if j > 0 && v != p[j-1] {
				h++
			}
		}
		res.Dilation = max(res.Dilation, h)
		hops += ways * h
	}
	if hops > math.MaxInt32 {
		panic(fmt.Sprintf("pathsched: %d hops overflow int32 offsets", hops))
	}
	if hops == 0 {
		return res
	}

	// Pass 1: hops per from-node size that node's bucket of out-links (a
	// node has at most n distinct successors, so the bucket is capped).
	used := make([]int32, n) // hop count here, then links filled in pass 2
	for _, p := range paths {
		for j := 1; j < len(p); j++ {
			if p[j] != p[j-1] {
				used[p[j-1]]++
				if ways == 2 {
					used[p[j]]++
				}
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

	// Pass 2: one link id per hop. Packet i's hops are linkOf[pos[i]:end[i]].
	linkOf := make([]int32, hops)
	pos := make([]int32, packets)
	end := make([]int32, packets)
	links, h := int32(0), int32(0)
	for i := range packets {
		p, back := paths[i/ways], i%ways == 1
		pos[i] = h
		for j := 1; j < len(p); j++ {
			u, v := p[j-1], p[j]
			if back {
				u, v = p[len(p)-j], p[len(p)-j-1]
			}
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
		end[i] = h
	}

	crossings := make([]int32, links)
	for _, l := range linkOf {
		crossings[l]++
		res.Congestion = max(res.Congestion, int(crossings[l]))
	}

	lowWords := (packets + 63) / 64
	marks := make([]uint64, lowWords+(lowWords+63)/64)
	q := fifos{
		head:    make([]int32, links),
		tail:    make([]int32, links),
		next:    make([]int32, packets),
		active:  make([]int32, 0, links),
		arrived: arrivals{low: marks[:lowWords], top: marks[lowWords:]},
	}
	for l := range q.head {
		q.head[l] = -1
	}
	remaining := 0
	for i := range packets {
		if pos[i] < end[i] {
			q.push(linkOf[pos[i]], int32(i))
			remaining++
		}
	}

	// Synchronous FIFO store-and-forward: every round, each directed
	// link transmits the head-of-line packet.
	for remaining > 0 {
		res.Makespan++
		q.popAll()
		// Arrivals join their next queue in packet order, whatever order
		// the links were visited in: runs are deterministic.
		q.arrived.drain(func(pkt int32) {
			pos[pkt]++
			if pos[pkt] == end[pkt] {
				remaining--
				return
			}
			q.push(linkOf[pos[pkt]], pkt)
		})
	}
	return res
}

// fifos holds one FIFO of packets per link, threaded through the packets
// themselves: head[l] and tail[l] delimit link l's queue (head −1 =
// empty), next[pkt] is the packet behind pkt. A packet waits in one queue
// at a time, so one next entry per packet serves all queues. active lists
// the links with a non-empty queue, in no particular order, and arrived
// marks the packets the last popAll moved.
type fifos struct {
	head, tail, next, active []int32
	arrived                  arrivals
}

func (q *fifos) push(l, pkt int32) {
	q.next[pkt] = -1
	if q.head[l] < 0 {
		q.head[l] = pkt
		q.active = append(q.active, l)
	} else {
		q.next[q.tail[l]] = pkt
	}
	q.tail[l] = pkt
}

// popAll removes the head packet of every non-empty queue and marks it
// arrived.
func (q *fifos) popAll() {
	busy := q.active[:0]
	for _, l := range q.active {
		pkt := q.head[l]
		q.arrived.add(pkt)
		if q.head[l] = q.next[pkt]; q.head[l] >= 0 {
			busy = append(busy, l)
		}
	}
	q.active = busy
}

// arrivals is a two-level bitset over packet ids that hands a round's
// arrivals back in ascending order without sorting them: bit pkt of low
// marks an arrived packet, and bit w of top marks a non-zero low[w]. A
// drain reads every top word and only the marked low words, so a round
// costs O(arrivals + packets/4096).
type arrivals struct {
	low, top []uint64
}

func (a *arrivals) add(pkt int32) {
	w := pkt >> 6
	a.low[w] |= 1 << (pkt & 63)
	a.top[w>>6] |= 1 << (w & 63)
}

// drain calls visit on every marked packet in ascending order and clears
// the marks.
func (a *arrivals) drain(visit func(pkt int32)) {
	for t, top := range a.top {
		a.top[t] = 0
		for ; top != 0; top &= top - 1 {
			w := t<<6 | bits.TrailingZeros64(top)
			for low := a.low[w]; low != 0; low &= low - 1 {
				visit(int32(w<<6 | bits.TrailingZeros64(low)))
			}
			a.low[w] = 0
		}
	}
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
