package mstbase

// Wire adapters for the transport layer (internal/transport): the
// per-shard harvest of the node-program GHS plus the byte codec for its
// (unexported) message payloads, so shard processes can exchange them
// over TCP. See internal/congest/wire.go for the codec contract: Encode
// appends a canonical byte form, Decode parses exactly those bytes, and
// both are pure so every process agrees on every payload value.

import (
	"encoding/binary"
	"fmt"
	"math"

	"almostmix/internal/congest"
)

// GHSChosenEdges returns the MST edge IDs chosen by nodes [lo, hi) of a
// GHSPrograms run, in node order with per-node emission order kept and
// no cross-node dedup: the raw stream GHSTreeEdges turns into the tree,
// whether it was read off the programs in one piece (GHSNetwork) or
// harvested node by node and shipped (the ghs workloads).
func GHSChosenEdges(programs []congest.Program, lo, hi int) []int {
	var edges []int
	for v := lo; v < hi; v++ {
		edges = append(edges, programs[v].(*ghsNode).chosen...)
	}
	return edges
}

// GHSTreeEdges reduces the chosen-edge stream of all nodes, in node order,
// to the run's tree: a core edge is chosen from both its ends, so the
// stream is deduplicated, first occurrence kept. Every ID must be below m,
// the graph's edge count.
func GHSTreeEdges(m int, chosen []int) []int {
	var edges []int
	seen := make([]bool, m)
	for _, id := range chosen {
		if !seen[id] {
			seen[id] = true
			edges = append(edges, id)
		}
	}
	return edges
}

func appendGHSCandidate(buf []byte, c ghsCandidate) []byte {
	// W may be +Inf ("no outgoing edge"), so ship the raw IEEE bits; X
	// and Y may be -1, so they go as signed varints.
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.W))
	buf = binary.AppendVarint(buf, int64(c.X))
	return binary.AppendVarint(buf, int64(c.Y))
}

// varint32 parses a canonical signed varint that must fit an int32 record
// field.
func varint32(b []byte) (int32, int) {
	v, n := congest.Varint(b)
	if n == 0 || v < math.MinInt32 || v > math.MaxInt32 {
		return 0, 0
	}
	return int32(v), n
}

func parseGHSCandidate(b []byte) (ghsCandidate, []byte, error) {
	if len(b) < 8 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: truncated GHS candidate")
	}
	w := math.Float64frombits(binary.BigEndian.Uint64(b))
	b = b[8:]
	x, n := varint32(b)
	if n == 0 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: malformed GHS candidate X")
	}
	b = b[n:]
	y, n := varint32(b)
	if n == 0 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: malformed GHS candidate Y")
	}
	return ghsCandidate{W: w, X: x, Y: y}, b[n:], nil
}

// EncodeGHSPayload appends the canonical encoding of a GHS record: its
// window as a signed varint, then its tag (the kind's offset from
// ghsKindBase: 1 fragment ID, 2 report, 3 decision, 4 merge request, 5
// adoption), then its fields.
func EncodeGHSPayload(buf []byte, m congest.Message) ([]byte, error) {
	if m.Kind < kindGHSFragID || m.Kind > kindGHSAdopt {
		return nil, fmt.Errorf("mstbase: GHS payload codec got message kind %d", m.Kind)
	}
	buf = binary.AppendVarint(buf, int64(m.Win))
	buf = append(buf, byte(m.Kind-ghsKindBase))
	switch m.Kind {
	case kindGHSFragID, kindGHSAdopt:
		buf = binary.AppendVarint(buf, int64(m.A))
	case kindGHSReport, kindGHSDecision:
		buf = appendGHSCandidate(buf, ghsCandOf(m))
	}
	return buf, nil
}

// DecodeGHSPayload parses the bytes EncodeGHSPayload produced.
func DecodeGHSPayload(b []byte) (congest.Message, error) {
	win, n := varint32(b)
	if n == 0 {
		return congest.Message{}, fmt.Errorf("mstbase: malformed GHS window")
	}
	if b = b[n:]; len(b) == 0 {
		return congest.Message{}, fmt.Errorf("mstbase: GHS payload has no tag")
	}
	kind, body := ghsKindBase+congest.Kind(b[0]), b[1:]
	m := congest.Message{Kind: kind, Win: win}
	switch kind {
	case kindGHSFragID, kindGHSAdopt:
		frag, n := varint32(body)
		if n == 0 || n != len(body) {
			return congest.Message{}, fmt.Errorf("mstbase: malformed GHS frag payload (%d bytes)", len(b))
		}
		m.A = frag
	case kindGHSReport, kindGHSDecision:
		cand, rest, err := parseGHSCandidate(body)
		if err != nil {
			return congest.Message{}, err
		}
		if len(rest) != 0 {
			return congest.Message{}, fmt.Errorf("mstbase: %d trailing bytes after GHS candidate", len(rest))
		}
		m.A, m.B, m.W = cand.X, cand.Y, math.Float64bits(cand.W)
	case kindGHSMergeReq:
		if len(body) != 0 {
			return congest.Message{}, fmt.Errorf("mstbase: %d trailing bytes after GHS merge request", len(body))
		}
	default:
		return congest.Message{}, fmt.Errorf("mstbase: unknown GHS payload tag %d", b[0])
	}
	return m, nil
}
