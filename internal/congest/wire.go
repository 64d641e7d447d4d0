package congest

// Wire adapters for the transport layer (internal/transport): exported
// program builders and payload codecs for this package's primitives.
// Payload types are deliberately unexported — programs exchange them as
// opaque Message values — so the byte codecs that ship them across
// process boundaries live here, next to the types they encode.
//
// Codec contract: Encode appends the payload's canonical byte form to
// buf and returns the extended slice; Decode parses exactly the bytes
// Encode produced and rejects trailing garbage. Both are pure, so every
// shard process decodes a payload into the same value the sender held.

import (
	"encoding/binary"
	"fmt"

	"almostmix/internal/graph"
)

// BFSPrograms returns per-node programs flooding a BFS tree from root,
// plus the shared result they record into. Run with RunUntilQuiet and a
// budget of 2·n+4 rounds (see BFS); node v's Parent/Dist entries are
// valid only on the process that owns node v.
func BFSPrograms(g *graph.Graph, root int) ([]Program, *BFSResult) {
	res := &BFSResult{
		Root:   root,
		Parent: make([]int, g.N()),
		Dist:   make([]int, g.N()),
	}
	for v := range res.Parent {
		res.Parent[v] = -1
		res.Dist[v] = -1
	}
	programs := make([]Program, g.N())
	for v := range programs {
		programs[v] = &bfsProgram{root: v == root, res: res}
	}
	return programs, res
}

// EncodeBFSPayload appends the canonical encoding of a BFS token.
func EncodeBFSPayload(buf []byte, m Message) ([]byte, error) {
	tok, ok := m.(bfsToken)
	if !ok {
		return nil, fmt.Errorf("congest: BFS payload codec got %T", m)
	}
	return binary.AppendUvarint(buf, uint64(tok.dist)), nil
}

// DecodeBFSPayload parses the bytes EncodeBFSPayload produced.
func DecodeBFSPayload(b []byte) (Message, error) {
	d, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return nil, fmt.Errorf("congest: malformed BFS payload (%d bytes)", len(b))
	}
	return bfsToken{dist: int(d)}, nil
}

// FloodPrograms returns per-node programs flooding the integer value
// from root (the wire-friendly restriction of BroadcastFrom), plus the
// shared per-node output slice. Run with RunUntilQuiet and a budget of
// 2·n+4 rounds; out[v] is valid only on the process owning node v.
func FloodPrograms(g *graph.Graph, root, value int) ([]Program, []Message) {
	out := make([]Message, g.N())
	programs := make([]Program, g.N())
	for v := range programs {
		programs[v] = &floodProgram{root: v == root, value: value, out: out}
	}
	return programs, out
}

// EncodeFloodPayload appends the canonical encoding of a flood value
// (an int, as built by FloodPrograms).
func EncodeFloodPayload(buf []byte, m Message) ([]byte, error) {
	v, ok := m.(int)
	if !ok {
		return nil, fmt.Errorf("congest: flood payload codec got %T", m)
	}
	return binary.AppendVarint(buf, int64(v)), nil
}

// DecodeFloodPayload parses the bytes EncodeFloodPayload produced.
func DecodeFloodPayload(b []byte) (Message, error) {
	v, n := binary.Varint(b)
	if n <= 0 || n != len(b) {
		return nil, fmt.Errorf("congest: malformed flood payload (%d bytes)", len(b))
	}
	return int(v), nil
}

// EncodeTickPayload appends the (empty) canonical encoding of Tick.
func EncodeTickPayload(buf []byte, m Message) ([]byte, error) {
	if _, ok := m.(tickToken); !ok {
		return nil, fmt.Errorf("congest: tick payload codec got %T", m)
	}
	return buf, nil
}

// DecodeTickPayload parses the bytes EncodeTickPayload produced.
func DecodeTickPayload(b []byte) (Message, error) {
	if len(b) != 0 {
		return nil, fmt.Errorf("congest: malformed tick payload (%d bytes)", len(b))
	}
	return Tick, nil
}
