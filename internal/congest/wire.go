package congest

// Wire adapters for the transport layer (internal/transport): exported
// program builders and payload codecs for this package's primitives.
// How a program family packs its payloads into Message records — which
// kinds, which fields — is its own business, so the byte codecs that ship
// them across process boundaries live here, next to the programs.
//
// Codec contract: Encode appends the canonical byte form of a record of
// one of the family's kinds to buf and returns the extended slice, and
// refuses every other kind; Decode parses exactly the bytes Encode
// produced, rejects trailing garbage, and returns only records of the
// family's kinds — never the empty record. Both are pure, so every shard
// process decodes a payload into the same record the sender held.

import (
	"encoding/binary"
	"fmt"
	"math"

	"almostmix/internal/graph"
)

// BFSPrograms returns per-node programs flooding a BFS tree from root,
// plus the shared result they record into. Run with RunUntilQuiet and a
// budget of 2·n+4 rounds; node v's Parent/Dist entries are valid only on
// the process that owns node v.
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

// Uvarint reads one uvarint in its canonical form, the one
// binary.AppendUvarint writes, and returns it with the bytes it took.
// binary.Uvarint also reads overlong forms (81 80 00 is 1), which end in a
// zero byte; Uvarint reports those, like a truncated or overflowing one,
// with n = 0. Decoders read their varints through it and Varint, so every
// byte string they accept is the one Encode writes for its record.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// Varint is Uvarint for the zig-zag signed form binary.AppendVarint
// writes.
func Varint(b []byte) (int64, int) {
	u, n := Uvarint(b)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, n
}

// EncodeBFSPayload appends the canonical encoding of a BFS token.
func EncodeBFSPayload(buf []byte, m Message) ([]byte, error) {
	if m.Kind != kindBFS {
		return nil, fmt.Errorf("congest: BFS payload codec got message kind %d", m.Kind)
	}
	return binary.AppendUvarint(buf, uint64(m.A)), nil
}

// DecodeBFSPayload parses the bytes EncodeBFSPayload produced.
func DecodeBFSPayload(b []byte) (Message, error) {
	d, n := Uvarint(b)
	if n == 0 || n != len(b) || d > math.MaxInt32 {
		return Message{}, fmt.Errorf("congest: malformed BFS payload (%d bytes)", len(b))
	}
	return bfsToken(int(d)), nil
}

// FloodPrograms returns per-node programs flooding the integer value
// from root, plus the shared per-node output slice — out[v] is the record
// node v received (read it with FloodValue), the empty record where the
// flood never reached. Run with RunUntilQuiet and a budget of 2·n+4
// rounds; out[v] is valid only on the process owning node v.
func FloodPrograms(g *graph.Graph, root, value int) ([]Program, []Message) {
	out := make([]Message, g.N())
	programs := make([]Program, g.N())
	rec := Message{Kind: kindFlood, W: uint64(int64(value))}
	for v := range programs {
		programs[v] = &floodProgram{root: v == root, value: rec, out: out}
	}
	return programs, out
}

// EncodeFloodPayload appends the canonical encoding of a flood record
// (as built by FloodPrograms).
func EncodeFloodPayload(buf []byte, m Message) ([]byte, error) {
	if m.Kind != kindFlood {
		return nil, fmt.Errorf("congest: flood payload codec got message kind %d", m.Kind)
	}
	return binary.AppendVarint(buf, int64(m.W)), nil
}

// DecodeFloodPayload parses the bytes EncodeFloodPayload produced.
func DecodeFloodPayload(b []byte) (Message, error) {
	v, n := Varint(b)
	if n == 0 || n != len(b) {
		return Message{}, fmt.Errorf("congest: malformed flood payload (%d bytes)", len(b))
	}
	return Message{Kind: kindFlood, W: uint64(v)}, nil
}

// EncodeTickPayload appends the (empty) canonical encoding of Tick.
func EncodeTickPayload(buf []byte, m Message) ([]byte, error) {
	if m != Tick {
		return nil, fmt.Errorf("congest: tick payload codec got message kind %d", m.Kind)
	}
	return buf, nil
}

// DecodeTickPayload parses the bytes EncodeTickPayload produced.
func DecodeTickPayload(b []byte) (Message, error) {
	if len(b) != 0 {
		return Message{}, fmt.Errorf("congest: malformed tick payload (%d bytes)", len(b))
	}
	return Tick, nil
}
