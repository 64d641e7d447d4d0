// Package rngutil provides a deterministic, splittable random-number
// fabric for the simulator.
//
// Every component of the simulation (each node program, each walk batch,
// each algorithm phase) draws from its own independent stream derived from
// a root seed. Streams are derived by hashing a (seed, label, index) tuple
// with SplitMix64, so results are reproducible regardless of scheduling
// order and independent of how many values other components consume.
package rngutil

import (
	"math/rand/v2"
)

// golden is SplitMix64's state increment, 2⁶⁴ over the golden ratio.
const golden = 0x9e3779b97f4a7c15

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is a well-known 64-bit finalizer-based generator; here it is
// used for seed derivation and counter draws (Mix), never as a sequential
// consumer-facing stream.
func splitMix64(state *uint64) uint64 {
	*state += golden
	return finalize(*state)
}

// finalize is SplitMix64's output function of an advanced state.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a label into a 64-bit value using FNV-1a.
func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Source derives child seeds and streams from a root seed.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Seed returns the root seed of the source.
func (s *Source) Seed() uint64 { return s.seed }

// Mix returns draw b of the counter stream (key, a): the SplitMix64
// output at position b of a stream whose start hashes key and a. It is a
// pure function of the triple, so draws may be taken in any order, and
// streams of distinct a are independent for every practical purpose.
// Derive is Mix at position 0.
func Mix(key, a, b uint64) uint64 { return MixColumn(key, b).At(a) }

// A Column is the draws of Mix at one key and position b, one per stream
// a. A loop that draws many streams at one position takes the column
// once: the part of the state that does not depend on a is summed when
// the column is made.
type Column struct{ key, b uint64 }

// MixColumn returns the column of Mix(key, ·, b).
func MixColumn(key, b uint64) Column {
	// The first SplitMix64 advance of key; b advances, and the one more
	// that draws them.
	return Column{key: key + golden, b: (b + 1) * golden}
}

// At returns Mix(key, a, b): the column's state with a's hash.
func (c Column) At(a uint64) uint64 { return finalize((c.key ^ a*0xd1342543de82ef95) + c.b) }

// Derive returns the child seed for (label, index).
func (s *Source) Derive(label string, index uint64) uint64 {
	return Mix(s.seed^hashString(label), index, 0)
}

// Stream returns an independent *rand.Rand for (label, index).
func (s *Source) Stream(label string, index uint64) *rand.Rand {
	seed := s.Derive(label, index)
	return rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
}

// Child returns a Source whose streams are independent from the parent's
// other children.
func (s *Source) Child(label string, index uint64) *Source {
	return &Source{seed: s.Derive(label, index)}
}

// NewRand returns a standalone deterministic *rand.Rand for a bare seed.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, splitMixOnce(seed)))
}

func splitMixOnce(seed uint64) uint64 {
	state := seed
	return splitMix64(&state)
}

// Perm fills a random permutation of [0,n) using r.
func Perm(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
