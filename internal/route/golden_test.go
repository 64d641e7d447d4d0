package route

// Golden fingerprints of the routing layer: for a fixed scenario set every
// Report field, the FNV-64 of the flattened ledger and, from RouteExact,
// every packet's overlay-edge traversals plus the expanded schedule's
// makespan, congestion and dilation are pinned in testdata/golden/. The
// traversals pin the leaf *paths*, not only their makespan: a rework of
// how leaf routes are found or stored must reproduce the files byte for
// byte, or it has changed which path a packet takes. The files were
// generated from the per-Route breadth-first search (partBFS).
//
// Regenerate with `go test ./internal/route -run Golden -update` ONLY when
// the routing contract itself is deliberately changed.

import (
	"bytes"
	"fmt"
	"testing"

	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/golden"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

func describeReport(out *bytes.Buffer, name string, rep *Report) {
	fmt.Fprintf(out, "%s delivered=%d prep=%d g0=%d base=%d hops=%v leaf=%d leafSchedules=%d maxPortalLoad=%d ledger=%s\n",
		name, rep.Delivered, rep.PrepRounds, rep.G0Rounds, rep.BaseRounds, rep.HopG0Rounds,
		rep.LeafG0Rounds, rep.LeafSchedules, rep.MaxPortalLoad, golden.Ledger(rep.Costs))
}

// describeDemand routes reqs with Route and with RouteExact and renders
// both reports and one line per packet of the recorded traversals.
func describeDemand(out *bytes.Buffer, name string, h *embed.Hierarchy, reqs []Request, seed uint64) error {
	rep, err := Route(h, reqs, rngutil.NewSource(seed))
	if err != nil {
		return err
	}
	describeReport(out, name+" route", rep)
	ex, trace, err := routeExact(h, reqs, rngutil.NewSource(seed))
	if err != nil {
		return err
	}
	describeReport(out, name+" exact-paper", ex.Paper)
	fmt.Fprintf(out, "%s exact rounds=%d congestion=%d dilation=%d\n", name, ex.ExactRounds, ex.Congestion, ex.Dilation)
	for i, trs := range trace {
		f := golden.New()
		for _, tr := range trs {
			f.Int(tr.level)
			f.Int(int(tr.edge))
			f.Int(int(tr.from))
			f.Int(int(tr.to))
		}
		fmt.Fprintf(out, "%s pkt %03d traversals=%d:%s\n", name, i, len(trs), f)
	}
	return nil
}

// deeper is TestRouteOnDeeperHierarchy's three-level hierarchy.
func deeper() (*embed.Hierarchy, error) {
	g := graph.RandomRegular(96, 8, rngutil.NewRand(25))
	p := embed.DefaultParams()
	p.Beta = 3
	p.LeafSize = 12
	return embed.Build(g, p, rngutil.NewSource(26))
}

func goldenShared() (*bytes.Buffer, error) {
	h, err := shared()
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	if err := describeDemand(out, "perm", h, RandomPermutation(h.Base, rngutil.NewRand(7)), 8); err != nil {
		return nil, err
	}
	if err := describeDemand(out, "degree", h, DegreeDemand(h.Base, rngutil.NewRand(9)), 10); err != nil {
		return nil, err
	}
	return out, nil
}

func goldenDeeper() (*bytes.Buffer, error) {
	h, err := deeper()
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	fmt.Fprintf(out, "levels=%d\n", h.Levels)
	return out, describeDemand(out, "perm", h, RandomPermutation(h.Base, rngutil.NewRand(27)), 28)
}

func goldenMargulis() (*bytes.Buffer, error) {
	g := graph.Margulis(6)
	h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(45))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	return out, describeDemand(out, "perm", h, RandomPermutation(g, rngutil.NewRand(46)), 47)
}

// goldenBarbell routes a permutation over the cluster-scoped tier of
// Barbell(8,4): two hierarchy clusters and the boundary between them.
func goldenBarbell() (*bytes.Buffer, error) {
	g := graph.Barbell(8, 4)
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		return nil, err
	}
	pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(11))
	if err != nil {
		return nil, err
	}
	rep, err := RoutePartitioned(pe, RandomPermutation(g, rngutil.NewRand(4)), rngutil.NewSource(9))
	if err != nil {
		return nil, err
	}
	out := new(bytes.Buffer)
	fmt.Fprintf(out, "partitioned delivered=%d waves=%d base=%d cluster=%d boundary=%d maxBoundaryLoad=%d batches=%d ledger=%s\n",
		rep.Delivered, rep.Waves, rep.BaseRounds, rep.ClusterRounds, rep.BoundaryRounds,
		rep.MaxBoundaryLoad, rep.ClusterBatches, golden.Ledger(rep.Costs))
	return out, nil
}

func TestGoldenRouting(t *testing.T) {
	for _, sc := range []struct {
		name  string
		slow  bool
		build func() (*bytes.Buffer, error)
	}{
		{"route-rr64d6", false, goldenShared},
		{"route-rr96d8-deeper", true, goldenDeeper},
		{"route-margulis6", false, goldenMargulis},
		{"route-partitioned-barbell8x4", false, goldenBarbell},
	} {
		t.Run(sc.name, func(t *testing.T) {
			if sc.slow && testing.Short() {
				t.Skip("skipping deep hierarchy build in -short mode")
			}
			got, err := sc.build()
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, sc.name, got.Bytes())
		})
	}
}
