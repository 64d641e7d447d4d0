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
// no cross-node dedup — the same raw stream GHSNetwork aggregates, so a
// coordinator concatenating per-shard streams in shard order and
// deduplicating first-seen reproduces its Edges exactly.
func GHSChosenEdges(programs []congest.Program, lo, hi int) []int {
	var edges []int
	for v := lo; v < hi; v++ {
		edges = append(edges, programs[v].(*ghsNode).chosen...)
	}
	return edges
}

// Payload type tags for the GHS wire codec.
const (
	ghsWireFragID byte = 1 + iota
	ghsWireReport
	ghsWireDecision
	ghsWireMergeReq
	ghsWireAdopt
	ghsWireWin // window-stamped wrapper, faulty runs only: varint window + recursive body
)

func appendGHSCandidate(buf []byte, c ghsCandidate) []byte {
	// W may be +Inf ("no outgoing edge"), so ship the raw IEEE bits; X
	// and Y may be -1, so they go as signed varints.
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.W))
	buf = binary.AppendVarint(buf, int64(c.X))
	return binary.AppendVarint(buf, int64(c.Y))
}

func parseGHSCandidate(b []byte) (ghsCandidate, []byte, error) {
	if len(b) < 8 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: truncated GHS candidate")
	}
	w := math.Float64frombits(binary.BigEndian.Uint64(b))
	b = b[8:]
	x, n := binary.Varint(b)
	if n <= 0 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: malformed GHS candidate X")
	}
	b = b[n:]
	y, n := binary.Varint(b)
	if n <= 0 {
		return ghsCandidate{}, nil, fmt.Errorf("mstbase: malformed GHS candidate Y")
	}
	return ghsCandidate{W: w, X: int32(x), Y: int32(y)}, b[n:], nil
}

// EncodeGHSPayload appends the canonical encoding of a GHS message
// payload. Faulty runs wrap every payload in ghsWin; the wrapper ships
// as its own tag with the body encoded recursively, so one codec covers
// both variants.
func EncodeGHSPayload(buf []byte, m congest.Message) ([]byte, error) {
	switch msg := m.(type) {
	case ghsWin:
		buf = binary.AppendVarint(append(buf, ghsWireWin), int64(msg.Win))
		inner, err := EncodeGHSPayload(buf, msg.Body)
		if err != nil {
			return nil, fmt.Errorf("mstbase: window-stamped body: %w", err)
		}
		return inner, nil
	case ghsFragID:
		return binary.AppendVarint(append(buf, ghsWireFragID), int64(msg.Frag)), nil
	case ghsReport:
		return appendGHSCandidate(append(buf, ghsWireReport), msg.Cand), nil
	case ghsDecision:
		return appendGHSCandidate(append(buf, ghsWireDecision), msg.Cand), nil
	case ghsMergeReq:
		return append(buf, ghsWireMergeReq), nil
	case ghsAdopt:
		return binary.AppendVarint(append(buf, ghsWireAdopt), int64(msg.Frag)), nil
	default:
		return nil, fmt.Errorf("mstbase: GHS payload codec got %T", m)
	}
}

// DecodeGHSPayload parses the bytes EncodeGHSPayload produced.
func DecodeGHSPayload(b []byte) (congest.Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("mstbase: empty GHS payload")
	}
	tag, body := b[0], b[1:]
	switch tag {
	case ghsWireWin:
		win, n := binary.Varint(body)
		if n <= 0 {
			return nil, fmt.Errorf("mstbase: malformed GHS window stamp")
		}
		inner, err := DecodeGHSPayload(body[n:])
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(ghsWin); nested {
			return nil, fmt.Errorf("mstbase: nested GHS window stamp")
		}
		return ghsWin{Win: int32(win), Body: inner}, nil
	case ghsWireFragID, ghsWireAdopt:
		frag, n := binary.Varint(body)
		if n <= 0 || n != len(body) {
			return nil, fmt.Errorf("mstbase: malformed GHS frag payload (%d bytes)", len(b))
		}
		if tag == ghsWireFragID {
			return ghsFragID{Frag: int32(frag)}, nil
		}
		return ghsAdopt{Frag: int32(frag)}, nil
	case ghsWireReport, ghsWireDecision:
		cand, rest, err := parseGHSCandidate(body)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("mstbase: %d trailing bytes after GHS candidate", len(rest))
		}
		if tag == ghsWireReport {
			return ghsReport{Cand: cand}, nil
		}
		return ghsDecision{Cand: cand}, nil
	case ghsWireMergeReq:
		if len(body) != 0 {
			return nil, fmt.Errorf("mstbase: %d trailing bytes after GHS merge request", len(body))
		}
		return ghsMergeReq{}, nil
	default:
		return nil, fmt.Errorf("mstbase: unknown GHS payload tag %d", tag)
	}
}
