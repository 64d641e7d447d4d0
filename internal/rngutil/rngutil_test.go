package rngutil

import (
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
