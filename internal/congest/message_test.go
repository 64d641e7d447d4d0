package congest

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// Named kinds of this package's test programs: what used to travel as a
// string is a kind, what used to travel as a bare int rides in
// testInt's A field.
const (
	kindTestInt Kind = KindTest + iota
	kindPing
	kindFarewell
	kindEarly
	kindLate
)

func testInt(v int) Message   { return Message{Kind: kindTestInt, A: int32(v)} }
func testIntOf(m Message) int { return int(m.A) }

var (
	ping     = Message{Kind: kindPing}
	farewell = Message{Kind: kindFarewell}
)

// TestMessageIsWords is the CONGEST bandwidth as an enforced invariant:
// Message must stay a flat record of integer words no wider than
// MessageBytes. A pointer-carrying field (pointer, interface, string,
// slice, map, chan, func — at any depth) would put the arenas back under
// the garbage collector's scan and let a payload escape the bound.
func TestMessageIsWords(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > MessageBytes {
		t.Fatalf("Message is %d bytes, above the %d-byte bound", got, MessageBytes)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s: a Message field may not carry a pointer", path, typ.Kind())
		}
	}
	walk("Message", reflect.TypeOf(Message{}))
	// The inbox arena holds Inbound values, so the same goes for them.
	walk("Inbound", reflect.TypeOf(Inbound{}))
}

// TestEmptyRecordIsAnError pins the reserved kind: the zero Message is the
// empty outbox slot, so sending it panics naming node and port, and a
// shard refuses to stage it — never a silent drop.
func TestEmptyRecordIsAnError(t *testing.T) {
	g := graph.Ring(4)
	net := NewUniformNetwork(g, func(int) Program {
		return programFunc{init: func(ctx *Ctx) {
			if ctx.ID() == 2 {
				ctx.Send(1, Message{A: 7})
			}
		}}
	}, rngutil.NewSource(1))
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "node 2 sends the empty record") || !strings.Contains(msg, "port 1") {
				t.Fatalf("Send of the empty record: recovered %q, want a panic naming node 2 and port 1", msg)
			}
		}()
		_, _ = net.Run(1)
	}()

	net = NewUniformNetwork(g, func(int) Program { return NewTicker(1) }, rngutil.NewSource(1))
	s, err := NewShard(net, Split{N: 4, K: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's crossing list toward shard 0: node 2's port to 1, then
	// node 3's port to 0.
	in := s.Inbound(1)
	if err := in.Stage(1, Message{A: 7}); err == nil || !strings.Contains(err.Error(), "empty record") {
		t.Fatalf("Stage of the empty record: err = %v, want an empty-record protocol error", err)
	}
	if err := in.Stage(1, Tick); err != nil {
		t.Fatalf("Stage after the refused empty record: %v", err)
	}
	s.Deliver()
	if got := s.Inbox(0); len(got) != 1 || got[0].From != 3 || got[0].Payload != Tick {
		t.Fatalf("node 0's inbox after the stage: %+v, want the Tick from node 3", got)
	}
}

// TestUnknownKindPanics: a built-in program that is delivered a kind it
// does not know panics with its family, the node, the port and the kind.
func TestUnknownKindPanics(t *testing.T) {
	g := graph.Path(2)
	res := &BFSResult{Parent: make([]int, 2), Dist: make([]int, 2)}
	net := NewNetwork(g, []Program{
		programFunc{init: func(ctx *Ctx) { ctx.Send(0, ping) }},
		&bfsProgram{res: res},
	}, rngutil.NewSource(1))
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"congest: BFS", "node 1", "kind 65537", "port 0"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("recovered %q, want it to contain %q", msg, want)
			}
		}
	}()
	_, _ = net.Run(2)
}

// TestCanonicalVarints: Uvarint reads exactly what binary.AppendUvarint
// writes, and refuses overlong, truncated and overflowing forms. (Parse
// reads a zig-zag word as the same uvarint; the payload contract test
// in internal/transport/workloads covers those.)
func TestCanonicalVarints(t *testing.T) {
	if err := quick.Check(func(u uint64) bool {
		ub := binary.AppendUvarint(nil, u)
		gu, nu := Uvarint(ub)
		return gu == u && nu == len(ub)
	}, nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{nil, {0x80}, {0x80, 0x00}, {0x81, 0x80, 0x00}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}} {
		if v, n := Uvarint(bad); n != 0 {
			t.Errorf("Uvarint read % x as %d (%d bytes)", bad, v, n)
		}
	}
}
