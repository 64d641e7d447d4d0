package mstbase

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
)

// TestGHSPayloadCodecRoundTrip checks the codec contract over every GHS
// kind: record → Encode → Decode gives the same record, and the bytes →
// Decode → Encode give the same bytes.
// Weights are arbitrary bit patterns (+Inf and NaNs included: a record
// compares by bits), fragment IDs, endpoints and windows any int32.
func TestGHSPayloadCodecRoundTrip(t *testing.T) {
	roundTrip := func(m congest.Message) bool {
		b, err := EncodeGHSPayload(nil, m)
		if err != nil {
			t.Logf("encode %+v: %v", m, err)
			return false
		}
		got, err := DecodeGHSPayload(b)
		if err != nil || got != m {
			t.Logf("%+v → % x → %+v (err %v)", m, b, got, err)
			return false
		}
		again, err := EncodeGHSPayload(nil, got)
		if err != nil || !bytes.Equal(again, b) {
			t.Logf("% x re-encoded as % x (err %v)", b, again, err)
			return false
		}
		return true
	}
	if err := quick.Check(func(frag, x, y, win int32, w uint64) bool {
		for _, m := range []congest.Message{
			{Kind: kindGHSFragID, Win: win, A: frag},
			{Kind: kindGHSReport, Win: win, A: x, B: y, W: w},
			{Kind: kindGHSDecision, Win: win, A: x, B: y, W: w},
			{Kind: kindGHSMergeReq, Win: win},
			{Kind: kindGHSAdopt, Win: win, A: frag},
		} {
			if !roundTrip(m) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !roundTrip(ghsCandMessage(kindGHSDecision, noneCandidate())) {
		t.Fatal("the no-outgoing-edge decision does not round-trip")
	}

	// The codec owns the GHS kinds only: the empty record and any other
	// family's are refused, and so is a GHS kind with bit 3 set (the window
	// stamp's old kind bit).
	for _, foreign := range []congest.Message{{}, congest.Tick, {Kind: 8}, {Kind: kindGHSFragID | 8}, {Kind: kindGHSAdopt + 1}, {Kind: congest.KindTest}} {
		if _, err := EncodeGHSPayload(nil, foreign); err == nil {
			t.Errorf("GHS codec encoded a record of kind %d", foreign.Kind)
		}
	}
	// Window 0 is the byte 0, window 2 the byte 4 (zig-zag varints).
	for _, bad := range [][]byte{
		nil,
		{0, 0},                            // tag of the empty record
		{4},                               // a window and nothing under it
		{4, 6, 4, 4},                      // the old stamp tag under a window: no kind
		{0, 7},                            // no such kind
		{0, 4, 0},                         // trailing byte after a merge request
		{0x80, 0x00, 4},                   // overlong window
		{0x80, 0x80, 0x80, 0x80, 0x10, 4}, // window beyond int32
		{0, 1, 0x82, 0x80, 0x00},          // overlong fragment ID
		append([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 0}, 0x82, 0x00, 2), // overlong candidate X
		{0, 2, 0, 0, 0}, // truncated candidate weight
	} {
		if m, err := DecodeGHSPayload(bad); err == nil {
			t.Errorf("GHS codec decoded % x to %+v", bad, m)
		}
	}
}

// FuzzGHSPayload: DecodeGHSPayload never panics, and any bytes it accepts
// re-encode to exactly themselves — one byte form per record. Seeds are
// every kind at windows 0 and MaxInt32, the +Inf "no edge" candidate with
// its −1 endpoints among them.
func FuzzGHSPayload(f *testing.F) {
	for _, win := range []int32{0, math.MaxInt32} {
		for _, m := range []congest.Message{
			ghsFragMessage(kindGHSFragID, 5),
			ghsCandMessage(kindGHSReport, ghsCandidate{W: 2.5, X: 1, Y: 3}),
			ghsCandMessage(kindGHSReport, noneCandidate()),
			ghsCandMessage(kindGHSDecision, ghsCandidate{W: 7, X: 0, Y: math.MaxInt32}),
			ghsCandMessage(kindGHSDecision, noneCandidate()),
			{Kind: kindGHSMergeReq},
			ghsFragMessage(kindGHSAdopt, 9),
		} {
			m.Win = win
			b, err := EncodeGHSPayload(nil, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeGHSPayload(b)
		if err != nil {
			return
		}
		if again, err := EncodeGHSPayload(nil, m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("% x decoded to %+v, which re-encodes as % x (err %v)", b, m, again, err)
		}
	})
}
