package mstbase

import (
	"bytes"
	"math"
	"testing"

	"almostmix/internal/congest"
)

// FuzzGHSPayload: congest.Parse under GHSLayouts never panics, and any
// bytes it accepts re-encode to exactly themselves — one byte form per
// record. Seeds are every kind at windows 0 and MaxInt32, the +Inf "no
// edge" candidate with its −1 endpoints among them.
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
			b, err := congest.Append(nil, GHSLayouts, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := congest.Parse(b, GHSLayouts)
		if err != nil {
			return
		}
		if again, err := congest.Append(nil, GHSLayouts, m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("% x decoded to %+v, which re-encodes as % x (err %v)", b, m, again, err)
		}
	})
}
