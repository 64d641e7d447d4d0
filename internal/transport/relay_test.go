package transport

// The peer data path without sockets: a shard takes each send off the
// crossing list of the peer it is bound for and encodes it once, straight
// into that peer's frame, and the peer checks it and stages it on its own
// copy of the list. The reference for those frames is a pinned byte
// string and a walk of the graph's ports.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
)

// kindCodec carries Tick, the one kind the test runtimes' tickers send,
// as one byte (its zero Win as a uvarint), so every relayed send has a
// payload for the framing to count.
var kindCodec = Workload{Name: "kind", Layouts: []congest.Layout{{Kind: congest.Tick.Kind, Win: congest.FieldUint31}}}

// testRuntime is shard `shard` of k over g running tickers, its links
// unconnected: frames sent to a peer wait in the link's out channel.
func testRuntime(t testing.TB, g *graph.Graph, k, shard int) *shardRuntime {
	t.Helper()
	net := congest.NewUniformNetwork(g, func(int) congest.Program { return congest.NewTicker(1 << 20) }, rngutil.NewSource(5))
	split := congest.Split{N: g.N(), K: k}
	lo, hi := split.Bounds(shard)
	s, err := congest.NewShard(net, split, shard)
	if err != nil {
		t.Fatal(err)
	}
	r := &shardRuntime{
		shard: shard, s: s, wl: kindCodec, inst: &Instance{Graph: g, MaxRounds: 1 << 20}, split: split, lo: lo, hi: hi,
		rec: flightrec.New("shard", shard, flightrec.DefaultCapacity), ws: wireSpec{Shards: k}, links: make([]*peerLink, k), peerTally: &connTally{},
	}
	for j := 0; j < k; j++ {
		if j != shard {
			r.links[j] = newPeerLink(j, nil)
		}
	}
	return r
}

// TestFillUvarint: a count or length written behind what it counts reads
// as if it had been appended first, whatever width its form takes.
func TestFillUvarint(t *testing.T) {
	head, tail := []byte("head"), []byte("the bytes it counts")
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64} {
		buf := append(append(append([]byte{}, head...), 0), tail...)
		got := fillUvarint(buf, len(head), v)
		want := append(binary.AppendUvarint(append([]byte{}, head...), v), tail...)
		if !bytes.Equal(got, want) {
			t.Errorf("v=%d: got %x, want %x", v, got, want)
		}
	}
}

// crossingSection is the reference form of the sends shard `from` of
// split makes to shard `to` when every node sends a field-less Tick on
// every port: the count of the ports of from's nodes that face to's, and
// per port a gap of 0 (each port holds a send) and Tick's one payload byte.
func crossingSection(g *graph.Graph, split congest.Split, from, to int) []byte {
	lo, hi := split.Bounds(from)
	n := 0
	for v := lo; v < hi; v++ {
		for _, h := range g.Neighbors(v) {
			if split.Owner(int(h.To)) == to {
				n++
			}
		}
	}
	return append(binary.AppendUvarint(nil, uint64(n)), make([]byte, 2*n)...)
}

// shard0To1Round1 is shard 0's ROUND of round 1 to shard 1 in
// TestRelayRunsAtThreeShards, under wireVersion 14: round 1, 24 delivered
// (four nodes hearing six each), none pending, stepped, none halted, awake
// next round, and six sends of Tick (gap 0, Win 0) — the edges 1–4, 2–4,
// 2–5, 3–4, 3–5 and 3–6, in shard 0's CSR order.
const shard0To1Round1 = "01180001000006000000000000000000000000"

// TestRelayRunsAtThreeShards runs Init and one round of tickers on three
// shards of a ring lattice whose every shard borders both others, without
// sockets. Every frame must hold exactly the sends bound for its peer —
// one per port of the pair's crossing list, in the sender's CSR order —
// behind the round's counts, halted count and wake; staged at the peer,
// they must be what its deliver phase brings in.
func TestRelayRunsAtThreeShards(t *testing.T) {
	const k = 3
	g := graph.RingLattice(12, 3) // each node reaches three on either side
	var rts [k]*shardRuntime
	for s := range rts {
		rts[s] = testRuntime(t, g, k, s)
		rts[s].s.Init()
		rts[s].stepHead(0, faults.Counts{})
	}
	delivered := [k]int{}
	for round := 0; round < 2; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			for s, r := range rts {
				var err error
				if round == 0 {
					err = r.sendStep(frameRound, 0, true)
				} else {
					r.delivered = r.s.Deliver()
					delivered[s] = r.delivered
					err = r.step(frameRound, round)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for s, r := range rts {
				for _, l := range r.links {
					if l == nil {
						continue
					}
					frame := <-l.out
					head := binary.AppendUvarint(nil, uint64(round))
					head = binary.AppendUvarint(head, uint64(delivered[s]))
					head = append(binary.AppendUvarint(head, 0), 1)
					head = binary.AppendUvarint(head, uint64(r.reply.halted))
					head = binary.AppendUvarint(head, 0) // tickers never sleep
					if ref := append(head, crossingSection(g, r.split, s, l.peer)...); !bytes.Equal(frame[frameHead:], ref) {
						t.Errorf("shard %d → %d: %x, want %x", s, l.peer, frame[frameHead:], ref)
					}
					if got := hex.EncodeToString(frame[frameHead:]); round == 1 && s == 0 && l.peer == 1 && got != shard0To1Round1 {
						t.Errorf("shard 0 → 1 in round 1: %s, want the pinned %s", got, shard0To1Round1)
					}
					if r.s.Outbound(l.peer).Len() == 0 {
						t.Errorf("shard %d sends nothing to %d: the lattice was meant to cross every boundary", s, l.peer)
					}
					peer := rts[l.peer]
					if err := peer.take(peer.links[s], frameRound, round, frame[frameHead:]); err != nil {
						t.Errorf("shard %d taking shard %d's frame: %v", l.peer, s, err)
					}
					l.free <- frame
				}
			}
		})
	}
	// Every staged send is delivered: each node hears all six neighbors.
	for s, r := range rts {
		if got, want := r.s.Deliver(), 6*(r.hi-r.lo); got != want {
			t.Errorf("shard %d delivered %d, want %d", s, got, want)
		}
	}
}

// sectionFamily is a workload family on a small graph, split in two: the
// step sections shard 1 sends shard 0.
type sectionFamily struct {
	spec     Spec
	layouts  []congest.Layout
	programs func(g *graph.Graph) []congest.Program
}

// sectionFamilies are the fuzz target's two fixed crossing lists: walk
// tokens on an expander and GHS records on a weighted one.
var sectionFamilies = []sectionFamily{
	{Spec{Graph: "rr", N: 16, D: 4, Seed: 3, SrcSeed: 81}, randomwalk.WalkLayouts, func(g *graph.Graph) []congest.Program {
		programs, _, _, _ := randomwalk.WalkPrograms(g, randomwalk.UniformCountTimesDegree(g, 1), nil, 6, nil)
		return programs
	}},
	{Spec{Graph: "rr", N: 16, D: 4, Seed: 3, SrcSeed: 71, WeightSeed: 7}, mstbase.GHSLayouts, func(g *graph.Graph) []congest.Program {
		programs, _ := mstbase.GHSPrograms(g, nil)
		return programs
	}},
}

// shards builds the family's two shards, each over its own replica.
func (f sectionFamily) shards(tb testing.TB) [2]*congest.Shard {
	tb.Helper()
	g, err := BuildGraph(f.spec)
	if err != nil {
		tb.Fatal(err)
	}
	var s [2]*congest.Shard
	for i := range s {
		net := congest.NewNetwork(g, f.programs(g), rngutil.NewSource(f.spec.SrcSeed))
		if s[i], err = congest.NewShard(net, congest.Split{N: g.N(), K: 2}, i); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// realSection runs the family's two shards in memory, exchanging every
// send through the codec, and returns the first step section of a round
// after Init in which shard 1 sends shard 0 something.
func (f sectionFamily) realSection(tb testing.TB) []byte {
	tb.Helper()
	s := f.shards(tb)
	for i := range s {
		s[i].Init()
	}
	for round := 0; round < 64; round++ {
		if round > 0 {
			for i := range s {
				s[i].Deliver()
				s[i].Step()
			}
		}
		var sections [2][]byte
		for i := range s {
			var err error
			if sections[i], err = appendSends(nil, s[i].Outbound(1-i), f.layouts); err != nil {
				tb.Fatal(err)
			}
			cur := cursor{b: sections[i]}
			err = cur.stage(s[1-i].Inbound(i), cur.length("send count"), f.layouts)
			if err = errors.Join(err, cur.done("step section")); err != nil {
				tb.Fatal(err)
			}
		}
		if round > 0 && sections[1][0] != 0 {
			return sections[1]
		}
	}
	tb.Fatal("shard 1 never sent shard 0 anything")
	return nil
}

// FuzzStepSection drives the sends of a peer's step section — the count
// and, per send, its gap and payload — against a fixed crossing list, one
// per family (the first argument picks it). Decoding must never panic, and a
// section it accepts must re-encode, from the slots it staged, to the same
// bytes: an accepted frame maps to exactly one set of (slot, record) pairs
// and its bytes are the only ones that do. The seeds are a real walks round
// and a real GHS round, cut and padded.
func FuzzStepSection(f *testing.F) {
	for fam, sf := range sectionFamilies {
		sec := sf.realSection(f)
		f.Add(uint8(fam), sec)
		f.Add(uint8(fam), sec[:len(sec)-1])                    // the last payload cut short
		f.Add(uint8(fam), append(sec, 0))                      // a byte past the last send
		f.Add(uint8(fam), append([]byte{0x80, 0}, sec[1:]...)) // an overlong count
	}
	f.Add(uint8(0), []byte{0})                                                                   // no sends
	f.Add(uint8(0), []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}) // a gap of 2⁶⁴−1
	var in [2]congest.Crossing
	for fam, sf := range sectionFamilies {
		in[fam] = sf.shards(f)[0].Inbound(1)
	}
	f.Fuzz(func(t *testing.T, fam uint8, data []byte) {
		sf, c := sectionFamilies[int(fam)%len(in)], in[int(fam)%len(in)]
		defer func() {
			for k := range c.Len() {
				c.Take(k) // what a refused section staged
			}
		}()
		cur := cursor{b: data}
		err := cur.stage(c, cur.length("send count"), sf.layouts)
		if err != nil || cur.done("step section") != nil {
			return
		}
		again, err := appendSends(nil, c, sf.layouts)
		if err != nil {
			t.Fatalf("section %x staged a record the codec cannot write: %v", data, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("section %x re-encodes as %x", data, again)
		}
	})
}
