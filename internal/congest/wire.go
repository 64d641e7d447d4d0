package congest

// Wire adapters for the transport layer (internal/transport): the program
// builders of this package's primitives, and the one payload codec.
//
// Codec contract: each family declares a Layout per kind, next to its
// kinds (TickLayouts, BFSLayouts, FloodLayouts here; randomwalk.WalkLayouts;
// mstbase.GHSLayouts), and CheckLayouts vets them. Append writes the
// canonical bytes of a record of those kinds and refuses every other
// record; Parse reads exactly those bytes, refuses all others, and never
// returns the empty record. ParsePrefix is Parse without the end check: it
// reads one record off the front of a longer buffer. All three are pure,
// so every shard process decodes a payload into the record its sender
// held.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// with n = 0. Parse reads every word through it (a zig-zag word is a
// uvarint too), so every byte string it accepts is the one Append writes.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return v, n
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

// Field is how a Layout writes one word of a record.
type Field uint8

const (
	FieldAbsent Field = iota // the word is zero and takes no bytes
	FieldUint31              // a uvarint within [0, MaxInt32]
	FieldInt32               // a zig-zag varint within int32
	FieldInt64               // a zig-zag varint of all 64 bits; W only
)

// Layout is the byte form of one Kind: a Field per word, written in the
// order Win, A, B, W. A family of more than one kind writes the index of
// its layout as a tag byte first.
type Layout struct {
	Kind         Kind
	Win, A, B, W Field
}

func (l *Layout) fields() [4]Field { return [4]Field{l.Win, l.A, l.B, l.W} }

var fieldNames = [4]string{"Win", "A", "B", "W"}

// fits reports whether v is in the range of field f.
func fits(f Field, v int64) bool {
	switch f {
	case FieldAbsent:
		return v == 0
	case FieldUint31:
		return uint64(v) <= math.MaxInt32
	case FieldInt32:
		return v == int64(int32(v))
	}
	return true
}

// CheckLayouts vets a family's layouts: at least one, at most 256 (the
// tag is a byte), no kind 0 and no kind twice, and FieldInt64 only on W
// (on an int32 word it could not round-trip).
func CheckLayouts(layouts []Layout) error {
	if len(layouts) == 0 || len(layouts) > 256 {
		return fmt.Errorf("congest: a family needs 1 to 256 payload layouts, got %d", len(layouts))
	}
	for i, l := range layouts {
		if l.Kind == 0 || slices.ContainsFunc(layouts[:i], func(o Layout) bool { return o.Kind == l.Kind }) {
			return fmt.Errorf("congest: payload layout for kind %d: kind 0 or a duplicate", l.Kind)
		}
		for w, f := range l.fields() {
			if f > FieldInt64 || f == FieldInt64 && w != 3 {
				return fmt.Errorf("congest: payload layout for kind %d: word %s cannot take field %d", l.Kind, fieldNames[w], f)
			}
		}
	}
	return nil
}

// Append appends the canonical byte form of m under layouts (which
// CheckLayouts accepts): the tag, when there is more than one layout, then
// each present word. It refuses a record whose kind has no layout — the
// empty record among them — and a word outside its field's range, a
// non-zero absent word included.
func Append(buf []byte, layouts []Layout, m Message) ([]byte, error) {
	tag := 0
	for tag < len(layouts) && layouts[tag].Kind != m.Kind {
		tag++
	}
	if tag == len(layouts) {
		return nil, fmt.Errorf("congest: no payload layout for message kind %d", m.Kind)
	}
	if len(layouts) > 1 {
		buf = append(buf, byte(tag))
	}
	words := [4]int64{int64(m.Win), int64(m.A), int64(m.B), int64(m.W)}
	for i, f := range layouts[tag].fields() {
		switch v := words[i]; {
		case !fits(f, v):
			return nil, fmt.Errorf("congest: kind %d payload word %s = %d is outside its field", m.Kind, fieldNames[i], v)
		case f == FieldUint31:
			buf = binary.AppendUvarint(buf, uint64(v))
		case f != FieldAbsent:
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf, nil
}

// Parse reads the bytes Append wrote for a record under layouts (which
// CheckLayouts accepts): ParsePrefix, and no trailing bytes.
func Parse(b []byte, layouts []Layout) (Message, error) {
	m, n, err := ParsePrefix(b, layouts)
	if err == nil && n != len(b) {
		return Message{}, fmt.Errorf("congest: %d trailing bytes after a kind %d payload", len(b)-n, m.Kind)
	}
	return m, err
}

// ParsePrefix reads one record off the front of b under layouts (which
// CheckLayouts accepts) and returns it with the bytes it took: the form
// is self-delimiting, so a record needs no length in front of it. It
// refuses an unknown tag and a varint that is overlong, truncated or
// overflowing or whose value is outside its field's range.
func ParsePrefix(b []byte, layouts []Layout) (Message, int, error) {
	l, at := &layouts[0], 0
	if len(layouts) > 1 {
		if len(b) == 0 || int(b[0]) >= len(layouts) {
			return Message{}, 0, fmt.Errorf("congest: payload has no tag or an unknown one (%d bytes)", len(b))
		}
		l, at = &layouts[b[0]], 1
	}
	var words [4]int64
	for i, f := range l.fields() {
		if f == FieldAbsent {
			continue
		}
		var u uint64
		var n int
		if at < len(b) && b[at] < 0x80 {
			u, n = uint64(b[at]), 1 // the one-byte form, without a call
		} else {
			u, n = Uvarint(b[at:])
		}
		words[i] = int64(u)
		if f != FieldUint31 {
			words[i] = int64(u>>1) ^ -int64(u&1) // zig-zag
		}
		if n == 0 || !fits(f, words[i]) {
			return Message{}, 0, fmt.Errorf("congest: kind %d payload word %s is malformed or outside its field", l.Kind, fieldNames[i])
		}
		at += n
	}
	return Message{Kind: l.Kind, Win: int32(words[0]), A: int32(words[1]), B: int32(words[2]), W: uint64(words[3])}, at, nil
}
