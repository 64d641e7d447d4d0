package embed

// Golden fingerprints of the construction layer: for a fixed scenario set
// the FNV-64 of every overlay's edges, embedded paths and part table, its
// measured construction and emulation rounds, and the flattened cost
// ledger are pinned in testdata/golden/. The files were generated from the
// per-walk-slice walk engine and the map-based path scheduler; any rework
// of randomwalk.Run, pathsched.Schedule or the overlay builders must
// reproduce them byte for byte, or it has changed the RNG draw order or
// the measured rounds, not just the memory layout.
//
// Regenerate with `go test ./internal/embed -run Golden -update` ONLY when
// the construction contract itself is deliberately changed.

import (
	"bytes"
	"fmt"
	"testing"

	"almostmix/internal/decomp"
	"almostmix/internal/golden"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// describeHierarchy renders one line per overlay plus one for the ledger.
func describeHierarchy(out *bytes.Buffer, name string, h *Hierarchy) {
	for level := 0; level <= h.Levels; level++ {
		o := h.Overlay(level)
		edges, paths, parts := golden.New(), golden.New(), golden.New()
		edges.Int(o.Graph.N())
		for _, e := range o.Graph.Edges() {
			edges.Int(e.U)
			edges.Int(e.V)
		}
		paths.Int(len(o.Paths))
		for _, p := range o.Paths {
			paths.Ints(p)
		}
		parts.Int(o.NumParts)
		parts.Ints(o.PartOf)
		fmt.Fprintf(out, "%s G%d edges=%d:%s paths=%s partof=%s construction=%d emulation=%d\n",
			name, level, o.Graph.M(), edges, paths, parts, o.ConstructionRounds, o.EmulationRounds)
	}
	fmt.Fprintf(out, "%s ledger total=%d rows=%s\n", name, h.ConstructionRoundsBase(), golden.Ledger(h.Costs))
}

// goldenExpander builds the benchmark's Build shape — exact lazy mixing
// time, SuccessMargin 4 — on a random d-regular graph.
func goldenExpander(n, d int, seed uint64) (*bytes.Buffer, error) {
	src := rngutil.NewSource(seed)
	g := graph.RandomRegular(n, d, src.Stream("graph", 0))
	tau, err := spectral.MixingTime(g, spectral.Lazy, 1_000_000)
	if err != nil {
		return nil, err
	}
	p := DefaultParams()
	p.TauMix = tau
	p.SuccessMargin = 4
	h, err := Build(g, p, src.Child("build", 0))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	describeHierarchy(out, "hierarchy", h)
	return out, nil
}

// goldenBarbell builds the cluster-scoped tier on Barbell(8,4) with the
// default parameters and estimated per-cluster mixing times.
func goldenBarbell(seed uint64) (*bytes.Buffer, error) {
	src := rngutil.NewSource(seed)
	g := graph.Barbell(8, 4)
	g.AssignDistinctRandomWeights(src.Stream("weights", 0))
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		return nil, err
	}
	pe, err := BuildPartitioned(dec, DefaultParams(), src.Child("build", 0))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	for i, ce := range pe.Clusters {
		name := fmt.Sprintf("cluster-%02d", i)
		if ce.Direct {
			fmt.Fprintf(out, "%s direct rounds=%d\n", name, ce.DirectRounds)
			continue
		}
		describeHierarchy(out, name, ce.H)
	}
	fmt.Fprintf(out, "partitioned ledger total=%d rows=%s\n", pe.ConstructionRoundsBase(), golden.Ledger(pe.Costs))
	return out, nil
}

func TestGoldenConstruction(t *testing.T) {
	type scenario struct {
		name  string
		build func(seed uint64) (*bytes.Buffer, error)
	}
	scenarios := []scenario{
		{"build-rr32d8", func(seed uint64) (*bytes.Buffer, error) { return goldenExpander(32, 8, seed) }},
		{"build-rr48d8", func(seed uint64) (*bytes.Buffer, error) { return goldenExpander(48, 8, seed) }},
		{"partitioned-barbell8x4", goldenBarbell},
	}
	for _, sc := range scenarios {
		for _, seed := range []uint64{1, 2} {
			name := fmt.Sprintf("%s-seed%d", sc.name, seed)
			t.Run(name, func(t *testing.T) {
				got, err := sc.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				golden.Check(t, name, got.Bytes())
			})
		}
	}
}
