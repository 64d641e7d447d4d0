package randomwalk

import (
	"bytes"
	"math"
	"testing"

	"almostmix/internal/congest"
)

// FuzzWalkPayload: congest.Parse under WalkLayouts never panics, and any
// bytes it accepts re-encode to exactly themselves — one byte form per
// token.
func FuzzWalkPayload(f *testing.F) {
	for _, tok := range []walkToken{
		{},
		{Left: 20, Origin: 2047, Seq: 1}, // the benchmark's probe token
		{Left: math.MaxInt32, Origin: math.MaxInt32, Seq: math.MaxInt32},
	} {
		b, err := congest.Append(nil, WalkLayouts, tok.message())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := congest.Parse(b, WalkLayouts)
		if err != nil {
			return
		}
		if again, err := congest.Append(nil, WalkLayouts, m); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("% x decoded to %+v, which re-encodes as % x (err %v)", b, m, again, err)
		}
	})
}
