package workloads_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
	"almostmix/internal/golden"
	"almostmix/internal/transport"
)

// goldenOrder is the order goldenPayloads is written and seeds FuzzPayload.
var goldenOrder = []string{"ticker", "bfs", "broadcast", "walks", "walks-faults", "ghs"}

// goldenPayloads is a fixed set of records per registered workload, at
// the edges of every field's range. Kinds are spelled as numbers: they
// belong to the program families (congest 1–15, randomwalk 16–31, mstbase
// 32–47), and the golden pins which number travels in which byte form.
func goldenPayloads() map[string][]congest.Message {
	ghs := []congest.Message{}
	for _, win := range []int32{0, math.MaxInt32} {
		for _, m := range []congest.Message{
			{Kind: 33, A: 5}, // fragment ID
			{Kind: 34, A: 1, B: 3, W: math.Float64bits(2.5)},           // report
			{Kind: 34, A: -1, B: -1, W: math.Float64bits(math.Inf(1))}, // report: no outgoing edge
			{Kind: 35, A: 0, B: math.MaxInt32, W: math.Float64bits(7)}, // decision
			{Kind: 35, A: -1, B: -1, W: math.Float64bits(math.Inf(1))}, // decision: no outgoing edge
			{Kind: 36},       // merge request
			{Kind: 37, A: 9}, // adoption
		} {
			m.Win = win
			ghs = append(ghs, m)
		}
	}
	walks := []congest.Message{
		{Kind: 16, Win: 20, A: 2047, B: 1}, // the repo benchmark's payload_codec probe token
		{Kind: 16, Win: math.MaxInt32, A: math.MaxInt32, B: math.MaxInt32},
	}
	return map[string][]congest.Message{
		"ticker": {congest.Tick},
		"bfs":    {{Kind: 2, A: 0}, {Kind: 2, A: 127}, {Kind: 2, A: 128}, {Kind: 2, A: math.MaxInt32}},
		"broadcast": {
			{Kind: 4, W: math.MaxUint64}, {Kind: 4, W: 0}, {Kind: 4, W: math.MaxInt64}, // flood values −1, 0, MaxInt64
		},
		"walks":        walks,
		"walks-faults": walks,
		"ghs":          ghs,
	}
}

// TestGoldenPayloadBytes pins the byte form of every registered
// workload's payloads: each record of goldenPayloads, encoded through the
// registry, must give the committed bytes and decode back to itself. The
// bytes cross process boundaries, so a change here is a wire change and
// takes the next wireVersion.
func TestGoldenPayloadBytes(t *testing.T) {
	payloads := goldenPayloads()
	var out bytes.Buffer
	for _, name := range goldenOrder {
		wl, err := transport.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range payloads[name] {
			b, err := wl.Encode(nil, m)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", name, m, err)
			}
			if got, err := wl.Decode(b); err != nil || got != m {
				t.Fatalf("%s: % x decoded to %+v (err %v), want %+v", name, b, got, err, m)
			}
			fmt.Fprintf(&out, "%s %+v: [% x]\n", name, m, b)
		}
	}
	golden.Check(t, "payloads", out.Bytes())
}

func fieldsOf(l congest.Layout) [4]congest.Field { return [4]congest.Field{l.Win, l.A, l.B, l.W} }

var wordNames = [4]string{"Win", "A", "B", "W"}

// inField maps any 64-bit value into the range of field f.
func inField(f congest.Field, v int64) int64 {
	switch f {
	case congest.FieldUint31:
		return v & math.MaxInt32
	case congest.FieldInt32:
		return int64(int32(v))
	case congest.FieldInt64:
		return v
	}
	return 0
}

func recordOf(l congest.Layout, w [4]int64) congest.Message {
	return congest.Message{Kind: l.Kind, Win: int32(w[0]), A: int32(w[1]), B: int32(w[2]), W: uint64(w[3])}
}

// wordBytes is one present word's canonical bytes, written out
// independently of the codec: a uvarint, or a zig-zag varint.
func wordBytes(f congest.Field, v int64) []byte {
	if f == congest.FieldUint31 {
		return binary.AppendUvarint(nil, uint64(v))
	}
	return binary.AppendVarint(nil, v)
}

// refPayload is the contract's byte form of a record: the layout's index
// as a tag byte when the family has more than one, then each present
// word — except that word `swap` (-1: none) is written as the bytes `as`.
func refPayload(layouts []congest.Layout, tag int, w [4]int64, swap int, as []byte) []byte {
	var b []byte
	if len(layouts) > 1 {
		b = append(b, byte(tag))
	}
	for i, f := range fieldsOf(layouts[tag]) {
		switch {
		case i == swap:
			b = append(b, as...)
		case f != congest.FieldAbsent:
			b = append(b, wordBytes(f, w[i])...)
		}
	}
	return b
}

// TestPayloadContract holds every registered workload's layouts to the
// codec contract of internal/congest/wire.go. For each kind, random
// records in range go to the reference bytes and back, both ways. Then
// every refusal: foreign kinds and the empty record, words outside their
// fields, overlong, truncated and trailing bytes, unknown tags.
func TestPayloadContract(t *testing.T) {
	for _, name := range transport.Names() {
		t.Run(name, func(t *testing.T) {
			wl, _ := transport.Lookup(name)
			for tag, l := range wl.Layouts {
				if err := quick.Check(func(w [4]int64) bool {
					for i, f := range fieldsOf(l) {
						w[i] = inField(f, w[i])
					}
					m, want := recordOf(l, w), refPayload(wl.Layouts, tag, w, -1, nil)
					b, err := wl.Encode(nil, m)
					if err != nil || !bytes.Equal(b, want) {
						t.Logf("%+v encoded as % x (err %v), want % x", m, b, err, want)
						return false
					}
					if got, err := wl.Decode(want); err != nil || got != m {
						t.Logf("% x decoded to %+v (err %v), want %+v", want, got, err, m)
						return false
					}
					return true
				}, nil); err != nil {
					t.Fatalf("kind %d: %v", l.Kind, err)
				}
				payloadRefusals(t, wl, tag)
			}
			// Append refuses every kind without a layout: the empty record,
			// the other families' kinds (all below 64), the unowned ones and
			// the test kinds.
			for k := range congest.Kind(64) {
				if !owns(wl, k) {
					foreignKind(t, wl, k)
				}
			}
			foreignKind(t, wl, congest.KindTest)
			if len(wl.Layouts) > 1 {
				for _, b := range [][]byte{nil, {byte(len(wl.Layouts))}, {0xff}} {
					refused(t, wl, "no or an unknown tag", b)
				}
			}
		})
	}
}

func owns(wl transport.Workload, k congest.Kind) bool {
	return slices.ContainsFunc(wl.Layouts, func(l congest.Layout) bool { return l.Kind == k })
}

func foreignKind(t *testing.T, wl transport.Workload, k congest.Kind) {
	if b, err := wl.Encode(nil, congest.Message{Kind: k}); err == nil {
		t.Errorf("encoded a record of kind %d as % x", k, b)
	}
}

func refused(t *testing.T, wl transport.Workload, row string, b []byte) {
	if m, err := wl.Decode(b); err == nil {
		t.Errorf("%s: decoded % x to %+v", row, b, m)
	}
}

// payloadRefusals checks every refusal row on layout tag of wl, around a
// record whose present words are each 300 or −300 (two varint bytes).
func payloadRefusals(t *testing.T, wl transport.Workload, tag int) {
	l := wl.Layouts[tag]
	var w [4]int64
	for i, f := range fieldsOf(l) {
		w[i] = inField(f, 300)
		if f == congest.FieldInt32 || f == congest.FieldInt64 {
			w[i] = -300
		}
	}
	valid := refPayload(wl.Layouts, tag, w, -1, nil)
	if m, err := wl.Decode(valid); err != nil || m != recordOf(l, w) {
		t.Fatalf("kind %d: % x decoded to %+v (err %v)", l.Kind, valid, m, err)
	}
	refused(t, wl, "trailing byte", append(slices.Clip(valid), 0))
	for n := range len(valid) {
		refused(t, wl, "truncated", valid[:n])
	}
	for i, f := range fieldsOf(l) {
		row := func(name string, as []byte) {
			refused(t, wl, fmt.Sprintf("kind %d word %s %s", l.Kind, wordNames[i], name), refPayload(wl.Layouts, tag, w, i, as))
		}
		var outside []int64 // values of word i Encode must refuse
		switch f {
		case congest.FieldAbsent:
			outside = []int64{1}
		case congest.FieldUint31:
			outside = []int64{-1}
			row("beyond MaxInt32", wordBytes(f, math.MaxInt32+1))
		case congest.FieldInt32:
			if i == 3 {
				outside = []int64{math.MaxInt32 + 1}
			}
			row("beyond int32", wordBytes(f, math.MaxInt32+1))
			row("below int32", wordBytes(f, math.MinInt32-1))
		}
		for _, v := range outside {
			word := w
			word[i] = v
			if b, err := wl.Encode(nil, recordOf(l, word)); err == nil {
				t.Errorf("kind %d: encoded word %s = %d, outside its field, as % x", l.Kind, wordNames[i], v, b)
			}
		}
		if f != congest.FieldAbsent {
			// The last byte's continuation bit set and a zero byte behind:
			// the same value, overlong.
			c := wordBytes(f, w[i])
			row("overlong", append(append(c[:len(c)-1], c[len(c)-1]|0x80), 0))
		}
	}
}

// TestRegisterRefusesLayouts: a workload whose layouts the codec cannot
// serve panics at Register and never reaches the registry.
func TestRegisterRefusesLayouts(t *testing.T) {
	build := func(transport.Spec) (*transport.Instance, error) { return nil, nil }
	many := make([]congest.Layout, 257)
	for i := range many {
		many[i].Kind = congest.KindTest + congest.Kind(i)
	}
	if err := congest.CheckLayouts(many[:256]); err != nil {
		t.Fatalf("256 layouts, one tag byte each: %v", err)
	}
	for _, tc := range []struct {
		name    string
		layouts []congest.Layout
	}{
		{"no layouts", nil},
		{"kind 0", []congest.Layout{{Kind: 0, A: congest.FieldUint31}}},
		{"duplicate kind", []congest.Layout{{Kind: congest.KindTest}, {Kind: congest.KindTest, A: congest.FieldUint31}}},
		{"257 layouts", many},
		{"64-bit field on an int32 word", []congest.Layout{{Kind: congest.KindTest, A: congest.FieldInt64}}},
		{"unknown field", []congest.Layout{{Kind: congest.KindTest, W: congest.FieldInt64 + 1}}},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			transport.Register(transport.Workload{Name: "refused", Build: build, Layouts: tc.layouts})
			return ""
		}()
		if want := `transport: workload "refused": congest: `; !strings.Contains(msg, want) {
			t.Errorf("%s: Register panicked with %q, want %q", tc.name, msg, want)
		}
	}
	if _, err := transport.Lookup("refused"); err == nil {
		t.Error("a refused workload is in the registry")
	}
}

// FuzzPayload: for any registered workload, Decode never panics, returns
// only records of the workload's kinds, and any bytes it accepts
// re-encode to exactly themselves — one byte form per record. Seeds are
// the golden records of every family, then each kind's all-zero record.
func FuzzPayload(f *testing.F) {
	names, payloads := transport.Names(), goldenPayloads()
	seed := func(name string, m congest.Message) {
		wl, _ := transport.Lookup(name)
		b, err := wl.Encode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(slices.Index(names, name)), b)
	}
	for _, name := range goldenOrder {
		for _, m := range payloads[name] {
			seed(name, m)
		}
	}
	for _, name := range goldenOrder {
		wl, _ := transport.Lookup(name)
		for _, l := range wl.Layouts {
			seed(name, congest.Message{Kind: l.Kind})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		wl, _ := transport.Lookup(names[int(which)%len(names)])
		m, err := wl.Decode(b)
		if err != nil {
			return
		}
		if !owns(wl, m.Kind) {
			t.Fatalf("%s: % x decoded to %+v, a kind it has no layout for", wl.Name, b, m)
		}
		if again, err := wl.Encode(nil, m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("%s: % x decoded to %+v, which re-encodes as % x (err %v)", wl.Name, b, m, again, err)
		}
	})
}
