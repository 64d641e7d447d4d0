package almostmix

// Embedded-tier benchmarks for the cost-ledger refactor: the hierarchy is
// built once (benchFixture) and reused across iterations, so the timed
// loops measure routing and MST execution — including the span-ledger
// bookkeeping every round total is now derived from. The *LedgerExport
// variants additionally flatten the ledger each iteration, bounding the
// export overhead; comparing the pairs shows the ledger cost is within
// run-to-run noise.

import "testing"

// BenchmarkEmbeddedRoute routes a fixed permutation workload through the
// shared hierarchy; every reported round figure is read off the run's
// cost ledger.
func BenchmarkEmbeddedRoute(b *testing.B) {
	f := benchFixture(b)
	reqs := PermutationWorkload(f.g, 31)
	var rounds int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Route(f.h, reqs, 32)
		if err != nil {
			b.Fatal(err)
		}
		rounds = rep.BaseRounds
	}
	b.ReportMetric(float64(rounds), "base-rounds")
}

// BenchmarkEmbeddedRouteLedgerExport is BenchmarkEmbeddedRoute plus a full
// ledger flatten per iteration — the extra work -trace performs.
func BenchmarkEmbeddedRouteLedgerExport(b *testing.B) {
	f := benchFixture(b)
	reqs := PermutationWorkload(f.g, 31)
	var rows int
	for i := 0; i < b.N; i++ {
		rep, err := Route(f.h, reqs, 32)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rep.Costs.Rows())
	}
	b.ReportMetric(float64(rows), "ledger-rows")
}

// BenchmarkEmbeddedMST runs the hierarchical MST on the shared hierarchy.
func BenchmarkEmbeddedMST(b *testing.B) {
	f := benchFixture(b)
	var rounds int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := MST(f.h, uint64(300+i))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "total-rounds")
}

// BenchmarkEmbeddedMSTLedgerExport adds the per-iteration ledger flatten.
func BenchmarkEmbeddedMSTLedgerExport(b *testing.B) {
	f := benchFixture(b)
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := MST(f.h, uint64(300+i))
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Costs.Rows())
	}
	b.ReportMetric(float64(rows), "ledger-rows")
}
