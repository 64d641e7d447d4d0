package transport

// The peer data path without sockets: a shard encodes each send once,
// straight into the frame of the peer it is bound for, and the peer checks
// and stages it. The reference for those frames is the per-message
// encoding below.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/flightrec"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// wireSend is one cross-shard message: the receiving node, the port AT
// THE RECEIVER, and the workload-encoded payload.
type wireSend struct {
	dst, port int
	payload   []byte
}

// appendSends is the reference encoding of a batch of sends, one message
// at a time: the count, then per send its dst, port, payload length and
// payload.
func appendSends(buf []byte, sends []wireSend) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(sends)))
	for _, s := range sends {
		buf = binary.AppendUvarint(buf, uint64(s.dst))
		buf = binary.AppendUvarint(buf, uint64(s.port))
		buf = binary.AppendUvarint(buf, uint64(len(s.payload)))
		buf = append(buf, s.payload...)
	}
	return buf
}

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
	s, err := congest.NewShard(net, lo, hi)
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

// TestRelayRunsAtThreeShards runs Init and one round of tickers on three
// shards of a ring lattice whose every shard borders both others, without
// sockets. Each shard's external sends, in (node, port) order, interleave
// their two destinations; every frame must hold exactly the sends bound
// for its peer, in that order, behind the round's counts, halted count and
// wake — and staged at
// the peer, they must be what its deliver phase brings in.
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
				var want [k][]wireSend
				r.s.ExternalSends(func(dst, port int, m congest.Message) {
					to := r.split.Owner(dst)
					want[to] = append(want[to], wireSend{dst: dst, port: port, payload: binary.AppendUvarint(nil, uint64(m.Win))})
				})
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
					if ref := appendSends(head, want[l.peer]); !bytes.Equal(frame[frameHead:], ref) {
						t.Errorf("shard %d → %d: %x, want %x", s, l.peer, frame[frameHead:], ref)
					}
					if len(want[l.peer]) == 0 {
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
