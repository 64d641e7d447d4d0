package rngutil

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42).Stream("walks", 7)
	b := NewSource(42).Stream("walks", 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceByLabel(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("walks", 0)
	b := s.Stream("hash", 0)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws across differently-labeled streams", same)
	}
}

func TestStreamIndependenceByIndex(t *testing.T) {
	s := NewSource(1)
	if s.Derive("x", 0) == s.Derive("x", 1) {
		t.Fatal("indices 0 and 1 derived identical seeds")
	}
}

// TestDeriveUnchangedByMix pins Derive to the formula it had before Mix
// existed, so every seed derived anywhere keeps its value.
func TestDeriveUnchangedByMix(t *testing.T) {
	old := func(seed uint64, label string, index uint64) uint64 {
		state := seed ^ hashString(label)
		_ = splitMix64(&state)
		state ^= index * 0xd1342543de82ef95
		return splitMix64(&state)
	}
	f := func(seed, index uint64, label string) bool {
		return NewSource(seed).Derive(label, index) == old(seed, label, index)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMixIsACounterStream: draw b of (key, a) is output b of one
// SplitMix64 stream, so consecutive counters walk that stream in order.
func TestMixIsACounterStream(t *testing.T) {
	f := func(key, a uint64) bool {
		state := key
		_ = splitMix64(&state)
		state ^= a * 0xd1342543de82ef95
		for b := uint64(0); b < 16; b++ {
			if Mix(key, a, b) != splitMix64(&state) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterWalksAStream: a column's counter for stream a draws Mix(key,
// a, b), Mix(key, a, b+1), … in turn.
func TestCounterWalksAStream(t *testing.T) {
	f := func(key, a uint64, b uint32) bool {
		c := MixColumn(key, uint64(b)).Counter(a)
		for s := uint64(b); s < uint64(b)+20; s++ {
			if c.Next() != Mix(key, a, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChildIndependence(t *testing.T) {
	s := NewSource(9)
	c1 := s.Child("phase", 1)
	c2 := s.Child("phase", 2)
	if c1.Seed() == c2.Seed() {
		t.Fatal("children share seed")
	}
	if c1.Seed() == s.Seed() {
		t.Fatal("child equals parent")
	}
}

func TestSeedAccessor(t *testing.T) {
	if NewSource(123).Seed() != 123 {
		t.Fatal("Seed() mismatch")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, szRaw uint8) bool {
		n := int(szRaw)%50 + 1
		p := Perm(NewRand(seed), n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformityRough(t *testing.T) {
	// Position of element 0 should be roughly uniform over 4 slots.
	counts := make([]int, 4)
	for seed := uint64(0); seed < 4000; seed++ {
		p := Perm(NewRand(seed), 4)
		for i, v := range p {
			if v == 0 {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("slot %d count %d far from 1000", i, c)
		}
	}
}

// fillLoops are Fill's two loops, called directly: the vector loop fills
// the whole eights only, as Fill calls it, and the rest is left to the
// scalar one.
var fillLoops = []struct {
	name string
	fill func(c Column, dst []uint64, a0 uint64)
}{
	{"vector", func(c Column, dst []uint64, a0 uint64) {
		n := len(dst) &^ 7
		fillVector(c, dst[:n], a0)
		c.fillScalar(dst[n:], a0+uint64(n))
	}},
	{"scalar", Column.fillScalar},
}

// skipVector skips the vector half of a test where fillVector does not
// run.
func skipVector(t testing.TB, name string) {
	if name == "vector" && !hasFillVector {
		t.Skip("this CPU has no AVX-512F and AVX-512DQ, or the OS does not save the ZMM state: Fill takes the scalar loop only")
	}
}

// fillMatches reports the first j at which a loop's fill of n draws of
// the column (key, b) from stream a0 differs from Column.At, from the
// same stream's Counter.Next at b, or from Fill itself.
func fillMatches(fill func(Column, []uint64, uint64), key, b, a0 uint64, n int) error {
	c := MixColumn(key, b)
	got, viaFill := make([]uint64, n), make([]uint64, n)
	fill(c, got, a0)
	c.Fill(viaFill, a0)
	for j, x := range got {
		a := a0 + uint64(j)
		counter := c.Counter(a)
		switch {
		case x != c.At(a):
			return fmt.Errorf("key %#x, b %d, a0 %#x, n %d: dst[%d] = %#x, At %#x", key, b, a0, n, j, x, c.At(a))
		case x != counter.Next():
			return fmt.Errorf("key %#x, b %d, a0 %#x, n %d: dst[%d] = %#x differs from Counter.Next", key, b, a0, n, j, x)
		case x != viaFill[j]:
			return fmt.Errorf("key %#x, b %d, a0 %#x, n %d: dst[%d] = %#x, Fill %#x", key, b, a0, n, j, x, viaFill[j])
		}
	}
	return nil
}

// TestColumnFillMatchesAt: both loops of Fill give Column.At's draws for
// every length up to 1 100 (whole eights and not), at random keys,
// positions and first streams, and at first streams near 2⁶⁴, where the
// lanes' stream indices wrap.
func TestColumnFillMatchesAt(t *testing.T) {
	t.Logf("HasAVX512() = %v", HasAVX512())
	for _, loop := range fillLoops {
		t.Run(loop.name, func(t *testing.T) {
			skipVector(t, loop.name)
			r := NewRand(5)
			for n := 0; n <= 1100; n++ {
				a0 := r.Uint64()
				if n%3 == 0 {
					a0 = -uint64(r.IntN(2*n + 1)) // within 2n streams of 2⁶⁴
				}
				if err := fillMatches(loop.fill, r.Uint64(), r.Uint64N(1<<20), a0, n); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// FuzzColumnFill: both loops of Fill give Column.At's draws at any key,
// position, first stream and length (up to 2 048).
func FuzzColumnFill(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint16(0))
	f.Add(uint64(1), uint64(3), uint64(1<<63), uint16(9))
	f.Add(uint64(0xdeadbeef), uint64(19), ^uint64(0)-12, uint16(64))
	f.Fuzz(func(t *testing.T, key, b, a0 uint64, n uint16) {
		for _, loop := range fillLoops {
			if loop.name == "vector" && !hasFillVector {
				continue
			}
			if err := fillMatches(loop.fill, key, b, a0, int(n%2049)); err != nil {
				t.Fatalf("%s: %v", loop.name, err)
			}
		}
	})
}

// BenchmarkColumnFill times each loop of Fill in ns per draw over one
// walk step's chunk of 512 draws.
func BenchmarkColumnFill(b *testing.B) {
	for _, loop := range fillLoops {
		b.Run(loop.name, func(b *testing.B) {
			skipVector(b, loop.name)
			c, dst := MixColumn(7, 3), make([]uint64, 512)
			for i := range b.N {
				loop.fill(c, dst, uint64(i)*uint64(len(dst)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
		})
	}
}
