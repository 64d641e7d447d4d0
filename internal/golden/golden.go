// Package golden is the test-side helper behind the committed fingerprint
// files under <package>/testdata/golden: an FNV-64a over a stream of
// integers and strings, the fingerprint of a flattened cost ledger, and
// the compare-or-rewrite step. A fingerprint file pins what a layer
// computes (edges, paths, rounds, ledger rows) so that a rework of how it
// computes it must reproduce the file byte for byte.
//
// Regenerate with `go test ./internal/<package> -run Golden -update` ONLY
// when the pinned contract itself is deliberately changed.
package golden

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"almostmix/internal/cost"
)

var update = flag.Bool("update", false, "rewrite the golden testdata files")

// Fingerprint is an FNV-64a over a stream of integers and strings.
type Fingerprint struct{ h hash.Hash64 }

// New returns an empty fingerprint.
func New() Fingerprint { return Fingerprint{fnv.New64a()} }

// Int mixes in one integer.
func (f Fingerprint) Int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	f.h.Write(b[:])
}

// Str mixes in a length-prefixed string.
func (f Fingerprint) Str(s string) {
	f.Int(len(s))
	f.h.Write([]byte(s))
}

// Ints mixes in a length-prefixed integer slice.
func (f Fingerprint) Ints(vs []int32) {
	f.Int(len(vs))
	for _, v := range vs {
		f.Int(int(v))
	}
}

func (f Fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// Ledger fingerprints every row of a flattened cost ledger.
func Ledger(led *cost.Ledger) Fingerprint {
	f := New()
	rows := led.Rows()
	f.Int(len(rows))
	for _, r := range rows {
		f.Str(r.Path)
		f.Str(r.Unit)
		for _, v := range []int{r.Depth, r.Self, r.Mul, r.Total, r.Rolled} {
			f.Int(v)
		}
	}
	return f
}

// Check compares got with testdata/golden/<name>.txt of the package under
// test, or rewrites the file under -update.
func Check(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fingerprint changed:\n--- got\n%s--- want\n%s", got, want)
	}
}
