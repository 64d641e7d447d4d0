package transport

// The relay path: a shard encodes each send once, the coordinator checks
// it and copies it into the DELIVER body of the shard it is bound for in
// runs. The reference for those bodies is the per-message encoding below,
// which is what the coordinator wrote before it relayed runs.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"almostmix/internal/graph"
)

// wireSend is one relayed cross-shard message: the receiving node, the
// port AT THE RECEIVER, and the workload-encoded payload.
type wireSend struct {
	dst, port int
	payload   []byte
}

// appendSends is the reference encoding of a relay batch, one message at a
// time: the count, then per send its dst, port, payload length and payload.
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

// appendStepReply encodes a whole step section: r's head, then sends.
func appendStepReply(buf []byte, r *stepReply, sends ...wireSend) []byte {
	return appendSends(appendStepHead(buf, r), sends)
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

// TestRelayRunsAtThreeShards feeds a coordinator over three shards the
// step sections of two barriers, their sends interleaving destinations so
// that each section splits into several runs, and out of shard order so
// that sections wait. Every DELIVER body must equal the reference encoding
// of the sends bound for its shard, in shard order and, within a shard,
// in section order.
func TestRelayRunsAtThreeShards(t *testing.T) {
	const k = 3
	g := graph.RingLattice(12, 3) // each node reaches three on either side: every shard borders both others
	c := &coordinator{tcp: TCP{Shards: k}, inst: &Instance{Graph: g}}
	c.prepare()

	// sections[s] is shard s's sends, alternating between the two other
	// shards for as long as both have sends left; each section's first
	// payload takes a two-byte length.
	var sections [k][]wireSend
	for s := 0; s < k; s++ {
		var byDst [k][]wireSend
		lo, hi := c.split.Bounds(s)
		for u := lo; u < hi; u++ {
			for _, h := range g.Neighbors(u) {
				v := int(h.To)
				if to := c.split.Owner(v); to != s {
					payload := bytes.Repeat([]byte{byte(u + 1)}, 1+len(byDst[to])%3)
					byDst[to] = append(byDst[to], wireSend{dst: v, port: g.Port(v, u), payload: payload})
				}
			}
		}
		for i := 0; len(sections[s]) < len(byDst[0])+len(byDst[1])+len(byDst[2]); i++ {
			for to := range byDst {
				if i < len(byDst[to]) {
					sections[s] = append(sections[s], byDst[to][i])
				}
			}
		}
		sections[s][0].payload = bytes.Repeat([]byte{0xee}, 200)
	}

	for round, order := range [][]int{{2, 0, 1}, {1, 2, 0}} {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			c.rounds = round
			for _, s := range order {
				body := appendStepReply(nil, &stepReply{active: 1}, sections[s]...)
				if err := c.absorbStepped(s, body); err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				if len(c.runs[s]) < 3 {
					t.Errorf("shard %d's section made %d runs, want its destinations interleaved", s, len(c.runs[s]))
				}
			}
			if c.applied != k {
				t.Fatalf("%d sections applied, want %d", c.applied, k)
			}
			for i := 0; i < k; i++ {
				var want []wireSend
				for s := range sections {
					for _, m := range sections[s] {
						if c.split.Owner(m.dst) == i {
							want = append(want, m)
						}
					}
				}
				if got := c.takeDeliverBody(i); !bytes.Equal(got, appendSends(nil, want)) {
					t.Errorf("DELIVER to shard %d: %x, want %x", i, got, appendSends(nil, want))
				}
			}
			c.applied = 0
		})
	}
}
