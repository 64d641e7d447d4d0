package mstbase

import (
	"bytes"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
)

// TestGHSPayloadCodecRoundTrip checks the codec contract over every GHS
// kind, unstamped and window-stamped: record → Encode → Decode gives the
// same record, and the bytes → Decode → Encode give the same bytes.
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
			{Kind: kindGHSFragID, A: frag},
			{Kind: kindGHSReport, A: x, B: y, W: w},
			{Kind: kindGHSDecision, A: x, B: y, W: w},
			{Kind: kindGHSMergeReq},
			{Kind: kindGHSAdopt, A: frag},
		} {
			stamped := m
			stamped.Kind |= ghsStamped
			stamped.Win = win
			if !roundTrip(m) || !roundTrip(stamped) {
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
	// family's are refused, stamped or not.
	for _, foreign := range []congest.Message{{}, congest.Tick, {Kind: ghsStamped}, {Kind: kindGHSAdopt + 1}, {Kind: congest.KindTest}} {
		if _, err := EncodeGHSPayload(nil, foreign); err == nil {
			t.Errorf("GHS codec encoded a record of kind %d", foreign.Kind)
		}
	}
	for _, bad := range [][]byte{
		nil,
		{0},                                      // tag of the empty record
		{ghsWireWin, 2},                          // a stamp and nothing under it
		{ghsWireWin, 2, ghsWireWin},              // nested stamp
		{ghsWireWin + 1},                         // no such kind
		{byte(kindGHSMergeReq - ghsKindBase), 0}, // trailing byte
	} {
		if m, err := DecodeGHSPayload(bad); err == nil {
			t.Errorf("GHS codec decoded % x to %+v", bad, m)
		}
	}
}
