package randomwalk

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
)

// TestWalkPayloadCodecRoundTrip checks the codec contract over the walk
// token record: record → Encode → Decode gives the same record, and the
// bytes → Decode → Encode give the same bytes. The literal case is the
// repo benchmark's payload_codec probe token (20 steps left, origin 2047,
// sequence 1), which must keep decoding and re-encoding byte for byte.
func TestWalkPayloadCodecRoundTrip(t *testing.T) {
	roundTrip := func(m congest.Message) bool {
		b, err := EncodeWalkPayload(nil, m)
		if err != nil {
			t.Logf("encode %+v: %v", m, err)
			return false
		}
		got, err := DecodeWalkPayload(b)
		if err != nil || got != m {
			t.Logf("%+v → % x → %+v (err %v)", m, b, got, err)
			return false
		}
		again, err := EncodeWalkPayload(nil, got)
		if err != nil || !bytes.Equal(again, b) {
			t.Logf("% x re-encoded as % x (err %v)", b, again, err)
			return false
		}
		return true
	}
	if err := quick.Check(func(left, origin, seq int32) bool {
		return roundTrip(walkToken{Left: left & math.MaxInt32, Origin: origin & math.MaxInt32, Seq: seq & math.MaxInt32}.message())
	}, nil); err != nil {
		t.Fatal(err)
	}

	probe := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 20), 2047), 1)
	m, err := DecodeWalkPayload(probe)
	if want := (walkToken{Left: 20, Origin: 2047, Seq: 1}).message(); err != nil || m != want {
		t.Fatalf("probe token decoded to %+v (err %v), want %+v", m, err, want)
	}
	if b, err := EncodeWalkPayload(nil, m); err != nil || !bytes.Equal(b, probe) {
		t.Fatalf("probe token re-encoded as % x (err %v), want % x", b, err, probe)
	}

	// The codec owns one kind: every other record, the empty one included,
	// is refused, and so is a field that does not fit the record.
	for _, foreign := range []congest.Message{{}, congest.Tick, {Kind: congest.KindTest}} {
		if _, err := EncodeWalkPayload(nil, foreign); err == nil {
			t.Errorf("walk codec encoded a record of kind %d", foreign.Kind)
		}
	}
	wide := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 1), math.MaxInt32+1), 0)
	if _, err := DecodeWalkPayload(wide); err == nil {
		t.Error("walk codec decoded an origin that does not fit the record field")
	}
	// 81 80 00 is an overlong 1: Encode writes 01.
	if m, err := DecodeWalkPayload([]byte{0x81, 0x80, 0x00, 0x01, 0x01}); err == nil {
		t.Errorf("walk codec decoded an overlong field to %+v", m)
	}
}

// FuzzWalkPayload: DecodeWalkPayload never panics, and any bytes it
// accepts re-encode to exactly themselves — one byte form per token.
func FuzzWalkPayload(f *testing.F) {
	for _, tok := range []walkToken{
		{},
		{Left: 20, Origin: 2047, Seq: 1}, // the benchmark's probe token
		{Left: math.MaxInt32, Origin: math.MaxInt32, Seq: math.MaxInt32},
	} {
		b, err := EncodeWalkPayload(nil, tok.message())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeWalkPayload(b)
		if err != nil {
			return
		}
		if again, err := EncodeWalkPayload(nil, m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("% x decoded to %+v, which re-encodes as % x (err %v)", b, m, again, err)
		}
	})
}
