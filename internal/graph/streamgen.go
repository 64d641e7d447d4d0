package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// The real-world-topology generator of the decomposition experiments
// (E18): a power-law random graph. Unlike the other randomized
// generators, it streams through the two-pass graph.Build path: its
// randomness is re-derived from the seed inside the emit closure (a fresh
// identically-seeded PCG per pass), so both passes replay the identical
// edge sequence and construction stays O(1) allocations in the edge count.

// ChungLu returns a Chung–Lu power-law random graph: node i carries an
// expected-degree weight w_i ∝ (i+1)^(-1/(exponent-1)) scaled so the mean
// weight is avgDeg, and each edge {u,v} appears independently with
// probability min(1, w_u·w_v/Σw). Sampling uses the Miller–Hagberg skip
// enumeration over v > u, which runs in expected O(n + m) time rather
// than Θ(n²). exponent is the power-law degree exponent, conventionally
// in (2, 3]; it must exceed 2 so the weight sequence has bounded mean.
func ChungLu(n int, exponent, avgDeg float64, seed uint64) *Graph {
	if n < 2 {
		panic("graph: chung-lu needs n >= 2")
	}
	if exponent <= 2 {
		panic("graph: chung-lu needs exponent > 2")
	}
	if avgDeg <= 0 {
		panic("graph: chung-lu needs avgDeg > 0")
	}
	alpha := 1 / (exponent - 1)
	return Build(n, func(add func(u, v int, w float64)) {
		// Weights and the PCG stream are rebuilt identically on each of
		// Build's two passes, so the emitted sequence replays exactly.
		wts := make([]float64, n)
		sum := 0.0
		for i := range wts {
			wts[i] = math.Pow(float64(i+1), -alpha)
			sum += wts[i]
		}
		scale := avgDeg * float64(n) / sum
		total := avgDeg * float64(n)
		for i := range wts {
			wts[i] *= scale
		}
		r := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
		for u := 0; u < n-1; u++ {
			v := u + 1
			p := math.Min(1, wts[u]*wts[v]/total)
			// Below ~1e-12 the remaining tail contributes no edges in
			// expectation and log1p underflow would break the skip step.
			for v < n && p > 1e-12 {
				if p < 1 {
					// Geometric skip to the next success under the
					// current (over-)estimate p; w is non-increasing in
					// v, so the true probability q ≤ p below.
					v += int(math.Log(1-r.Float64()) / math.Log(1-p))
				}
				if v < n {
					q := math.Min(1, wts[u]*wts[v]/total)
					if r.Float64()*p < q {
						add(u, v, 1)
					}
					p = q
					v++
				}
			}
		}
	})
}

// ConnectedChungLu draws ChungLu samples with successive seeds until a
// connected one is found, up to 100 attempts (power-law graphs at
// moderate average degree leave a few isolated low-weight nodes with
// constant probability).
func ConnectedChungLu(n int, exponent, avgDeg float64, seed uint64) (*Graph, error) {
	for attempt := uint64(0); attempt < 100; attempt++ {
		g := ChungLu(n, exponent, avgDeg, seed+attempt)
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no connected chung-lu(n=%d, exp=%g, deg=%g) in 100 attempts from seed %d: %w",
		n, exponent, avgDeg, seed, ErrDisconnected)
}
