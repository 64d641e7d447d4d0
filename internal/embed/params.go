// Package embed builds the paper's hierarchical embedding of random
// graphs (§3.1): the level-zero Erdős–Rényi-style overlay G0 on 2m virtual
// nodes, the recursive β-ary partition with per-part random graphs
// G1..Gk, and the portals used to hop packets between sibling parts.
//
// Every overlay edge stores the path (in the level below) along which it
// was embedded, so higher-level communication expands into measured
// store-and-forward schedules rather than assumed asymptotic costs.
package embed

import (
	"fmt"
	"math"

	"almostmix/internal/graph"
)

// Params configures the hierarchical embedding: the constants anything
// tunes. A zero field selects its default — DefaultParams' value, or for
// Beta, LeafSize and TauMix the formula named on the field — so the zero
// Params and DefaultParams() build the same hierarchy. No field may be
// negative: Build rejects that with an error naming the field.
//
// The paper's asymptotic constants (200·log n walks, 100·log n overlay
// degree, β = 2^Θ(√(log n·log log n))) exceed practical sizes at
// laptop-scale n, so the defaults keep the paper's formulas with smaller
// leading constants; every experiment records the parameter set used
// (Hierarchy.Resolved).
type Params struct {
	// Beta is the partition branching factor β. Zero selects the
	// paper's formula 2^⌈√(log₂ n · log₂ log₂ n)⌉ clamped to
	// [minBeta, maxBeta].
	Beta int
	// WalksC·log₂ n level-zero random walks start per virtual node
	// (paper: 200·log n).
	WalksC int
	// DegreeG0C·log₂ n outgoing G0 neighbors are kept per virtual node
	// (paper: 100·log n); at most WalksC.
	DegreeG0C int
	// WalkLenFactor multiplies the mixing time for level-zero walks
	// (the Lemma 3.1 remark suggests at least 2).
	WalkLenFactor int
	// LeafSize stops the recursion once parts are at most this big
	// (paper: O(log n)). Zero selects 4·⌈log₂ 2m⌉.
	LeafSize int
	// TauMix overrides the base-graph lazy mixing time; zero computes a
	// spectral estimate (exact computation is exposed separately in
	// internal/spectral for experiments that can afford it).
	TauMix int
	// SuccessMargin multiplies the expected number of walks needed at
	// levels ≥ 1 so that enough walks succeed w.h.p.
	SuccessMargin float64
}

// DefaultParams returns the parameter set used by the experiments.
func DefaultParams() Params {
	return Params{
		WalksC:        6,
		DegreeG0C:     2,
		WalkLenFactor: 2,
		SuccessMargin: 2.5,
	}
}

// The automatic β choice is clamped to [minBeta, maxBeta].
const minBeta, maxBeta = 4, 16

// log2ceil returns ⌈log₂ x⌉ for x ≥ 1.
func log2ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(x))))
}

// resolved holds the concrete values derived from Params for a given
// graph.
type resolved struct {
	beta          int
	walksPerVNode int
	degreeG0      int
	overlayDegree int // same-part neighbors kept per node at levels ≥ 1 (paper: Θ(log n))
	walkLenFactor int
	leafSize      int
	hashW         int // the W of the W-wise independent partition hash
	levels        int // k: number of partition levels (≥ 1)
	successMargin float64
}

// resolve turns Params into concrete values for graph g. A negative field
// (or a SuccessMargin that is NaN or infinite) is an error naming it.
func (p Params) resolve(g *graph.Graph) (resolved, error) {
	for _, f := range []struct {
		name  string
		value int
	}{
		{"Beta", p.Beta}, {"WalksC", p.WalksC}, {"DegreeG0C", p.DegreeG0C},
		{"WalkLenFactor", p.WalkLenFactor}, {"LeafSize", p.LeafSize}, {"TauMix", p.TauMix},
	} {
		if f.value < 0 {
			return resolved{}, fmt.Errorf("embed: Params.%s must be >= 0, got %d", f.name, f.value)
		}
	}
	if !(p.SuccessMargin >= 0 && p.SuccessMargin <= math.MaxFloat64) {
		return resolved{}, fmt.Errorf("embed: Params.SuccessMargin must be a finite number >= 0, got %v", p.SuccessMargin)
	}
	n, m2 := g.N(), 2*g.M()
	if n < 2 || m2 == 0 {
		return resolved{}, fmt.Errorf("embed: graph too small (n=%d, m=%d)", n, g.M())
	}
	def := DefaultParams()
	if p.WalksC == 0 {
		p.WalksC = def.WalksC
	}
	if p.DegreeG0C == 0 {
		p.DegreeG0C = def.DegreeG0C
	}
	if p.WalkLenFactor == 0 {
		p.WalkLenFactor = def.WalkLenFactor
	}
	if p.SuccessMargin == 0 {
		p.SuccessMargin = def.SuccessMargin
	}
	logN := log2ceil(n) // ≥ 1: n ≥ 2
	logM2 := max(2, log2ceil(m2))
	r := resolved{
		beta:          p.Beta,
		walksPerVNode: p.WalksC * logN,
		degreeG0:      p.DegreeG0C * logN,
		overlayDegree: 2 * logM2,
		walkLenFactor: p.WalkLenFactor,
		leafSize:      p.LeafSize,
		hashW:         logM2,
		successMargin: p.SuccessMargin,
	}
	if r.beta == 0 {
		loglog := math.Log2(math.Max(2, float64(logN)))
		exp := math.Ceil(math.Sqrt(float64(logN) * loglog))
		r.beta = min(max(1<<int(exp), minBeta), maxBeta)
	}
	if r.beta < 2 {
		return resolved{}, fmt.Errorf("embed: beta must be >= 2, got %d", r.beta)
	}
	// The paper's analysis needs β ≤ √m (Lemma 3.4); clamp so sibling
	// parts always share overlay edges.
	if rootM := int(math.Sqrt(float64(m2) / 2)); r.beta > rootM {
		r.beta = max(2, rootM)
	}
	if r.degreeG0 > r.walksPerVNode {
		return resolved{}, fmt.Errorf("embed: degreeG0 %d exceeds walks per node %d", r.degreeG0, r.walksPerVNode)
	}
	if r.leafSize == 0 {
		r.leafSize = 4 * logM2
	}
	// Number of levels: split while the children stay at least
	// max(leafSize, 2β) — below ≈ 2β nodes per part, sibling parts stop
	// sharing overlay edges and portals (Lemma 3.3) cannot exist.
	minPart := max(r.leafSize, 2*r.beta)
	k := 0
	size := m2
	for size/r.beta >= minPart {
		size /= r.beta
		k++
	}
	if k == 0 {
		k = 1 // always at least one partition level
	}
	r.levels = k
	return r, nil
}
