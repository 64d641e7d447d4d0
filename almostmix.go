package almostmix

import (
	"math/rand/v2"

	"almostmix/internal/cliquealgo"
	"almostmix/internal/cliquemu"
	"almostmix/internal/congest"
	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/mincut"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
	"almostmix/internal/spectral"
)

// Re-exported core types. The facade exposes everything a downstream user
// needs without importing internal packages.
type (
	// Graph is an undirected weighted graph; see the constructors below.
	Graph = graph.Graph
	// Edge is one weighted edge of a Graph.
	Edge = graph.Edge
	// Params configures hierarchy construction; zero fields select the
	// paper's formulas with laptop-scale constants.
	Params = embed.Params
	// Hierarchy is the built routing structure of §3.1.
	Hierarchy = embed.Hierarchy
	// RouteRequest is one point-to-point packet delivery demand.
	RouteRequest = route.Request
	// RouteReport is the measured outcome of a routing run.
	RouteReport = route.Report
	// MSTResult is the outcome of the hierarchical MST (Theorem 1.1).
	MSTResult = mst.Result
	// BaselineResult is the outcome of a baseline MST algorithm.
	BaselineResult = mstbase.Result
	// CliqueResult is the outcome of a clique emulation (Theorem 1.3).
	CliqueResult = cliquemu.Result
	// MinCutResult is the outcome of the approximate minimum cut.
	MinCutResult = mincut.ApproxResult
	// WalkKind selects the lazy or the 2Δ-regular random walk.
	WalkKind = spectral.WalkKind
	// CostLedger is the hierarchical span ledger every embedded-tier
	// round total is derived from (Hierarchy.Costs, RouteReport.Costs,
	// MSTResult.Costs, CliqueResult.Costs).
	CostLedger = cost.Ledger
	// CostSpan is one node of a CostLedger's span tree.
	CostSpan = cost.Span
	// CostRow is one flattened ledger row, as exported by -trace.
	CostRow = cost.Row
	// MetricsRegistry is the host-side metrics registry behind -metrics:
	// counters, gauges and histograms measuring wall-clock behavior, kept
	// strictly apart from the simulated-round ledgers so traces stay
	// byte-deterministic.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time export of a MetricsRegistry,
	// writable as JSON or CSV.
	MetricsSnapshot = metrics.Snapshot
)

// Walk kinds (Definition 2.1 and 2.2).
const (
	LazyWalk    = spectral.Lazy
	RegularWalk = spectral.Regular
)

// DefaultParams returns the default hierarchy parameters.
func DefaultParams() Params { return embed.DefaultParams() }

// NewMetricsRegistry returns an empty host-metrics registry. Attach it to
// a simulator run (congest.Network.SetMetrics via the internal API, or
// the -metrics flag of the cmd binaries) and export with Snapshot.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// NewRand returns a deterministic random generator for the given seed,
// usable with the graph constructors and weight assignment.
func NewRand(seed uint64) *rand.Rand { return rngutil.NewRand(seed) }

// Graph constructors (deterministic given the seed).

// NewRing returns the n-node cycle.
func NewRing(n int) *Graph { return graph.Ring(n) }

// NewComplete returns the complete graph K_n.
func NewComplete(n int) *Graph { return graph.Complete(n) }

// NewTorus returns the rows×cols wrap-around grid.
func NewTorus(rows, cols int) *Graph { return graph.Torus(rows, cols) }

// NewHypercube returns the dim-dimensional hypercube.
func NewHypercube(dim int) *Graph { return graph.Hypercube(dim) }

// NewRandomRegular returns a connected random d-regular graph.
func NewRandomRegular(n, d int, seed uint64) *Graph {
	return graph.RandomRegular(n, d, rngutil.NewRand(seed))
}

// NewGnp returns a connected Erdős–Rényi G(n,p) sample; p must be above
// the connectivity threshold.
func NewGnp(n int, p float64, seed uint64) (*Graph, error) {
	return graph.ConnectedGnp(n, p, rngutil.NewRand(seed))
}

// NewLollipop returns a clique with a path attached — the low-expansion
// family on which mixing-time-based algorithms degrade.
func NewLollipop(cliqueSize, pathLen int) *Graph { return graph.Lollipop(cliqueSize, pathLen) }

// NewBarbell returns two cliques joined by a path (minimum cut 1).
func NewBarbell(cliqueSize, bridgeLen int) *Graph { return graph.Barbell(cliqueSize, bridgeLen) }

// NewDumbbell returns two expanders joined by the given number of bridges.
func NewDumbbell(half, degree, bridges int, seed uint64) *Graph {
	return graph.Dumbbell(half, degree, bridges, rngutil.NewRand(seed))
}

// NewMargulis returns the explicit Margulis–Gabber–Galil expander on m²
// nodes (degree ≤ 8).
func NewMargulis(m int) *Graph { return graph.Margulis(m) }

// BuildHierarchy constructs the §3.1 hierarchical embedding on g.
func BuildHierarchy(g *Graph, p Params, seed uint64) (*Hierarchy, error) {
	return embed.Build(g, p, rngutil.NewSource(seed))
}

// Route delivers all requests via the hierarchical routing scheme
// (Theorem 1.2) and returns measured costs. Calls on one hierarchy may run
// concurrently: they share only its leaf route tables, which are filled on
// first use and published atomically, and every call reports what it
// reports alone.
func Route(h *Hierarchy, reqs []RouteRequest, seed uint64) (*RouteReport, error) {
	return route.Route(h, reqs, rngutil.NewSource(seed))
}

// RouteExact routes like Route but also expands every packet's journey
// down to base-graph edges and schedules the real traffic end to end,
// measuring how conservative the per-level emulation accounting is.
func RouteExact(h *Hierarchy, reqs []RouteRequest, seed uint64) (*route.ExactReport, error) {
	return route.RouteExact(h, reqs, rngutil.NewSource(seed))
}

// RoutePhased splits heavy demands into random phases (footnote 3).
func RoutePhased(h *Hierarchy, reqs []RouteRequest, phases int, seed uint64) (*RouteReport, error) {
	return route.RoutePhased(h, reqs, phases, rngutil.NewSource(seed))
}

// PermutationWorkload generates the canonical permutation-routing demand.
func PermutationWorkload(g *Graph, seed uint64) []RouteRequest {
	return route.RandomPermutation(g, rngutil.NewRand(seed))
}

// DegreeWorkload generates the full-rate d_G(v)-messages-per-node demand
// of Theorem 1.2.
func DegreeWorkload(g *Graph, seed uint64) []RouteRequest {
	return route.DegreeDemand(g, rngutil.NewRand(seed))
}

// MST computes the minimum spanning tree of h's weighted base graph with
// the paper's algorithm (Theorem 1.1).
func MST(h *Hierarchy, seed uint64) (*MSTResult, error) {
	return mst.Run(h, rngutil.NewSource(seed))
}

// MSTKruskal computes the MST centrally — the verification ground truth.
func MSTKruskal(g *Graph) (edgeIDs []int, weight float64) { return mstbase.Kruskal(g) }

// MSTBaselineGHS runs the flood-based Borůvka baseline.
func MSTBaselineGHS(g *Graph) (*BaselineResult, error) { return mstbase.GHS(g) }

// MSTBaselineKP runs the Garay–Kutten–Peleg-style Õ(D+√n) baseline.
func MSTBaselineKP(g *Graph) (*BaselineResult, error) { return mstbase.KP(g) }

// MSTBaselineGHSNetwork runs synchronous Borůvka as genuine node programs
// on the CONGEST simulator — every message is simulated and the round
// count is measured, the full-fidelity counterpart of MSTBaselineGHS.
func MSTBaselineGHSNetwork(g *Graph, seed uint64) (*BaselineResult, error) {
	return mstbase.GHSNetwork(g, rngutil.NewSource(seed), congest.Options{Workers: 1})
}

// MSTBaselineGHSNetworkParallel is MSTBaselineGHSNetwork on the parallel
// round engine with the given worker count (1 = sequential reference,
// <= 0 = one worker per CPU). Rounds and results are bit-identical for
// every worker count; only wall-clock time changes.
func MSTBaselineGHSNetworkParallel(g *Graph, seed uint64, workers int) (*BaselineResult, error) {
	return mstbase.GHSNetwork(g, rngutil.NewSource(seed), congest.Options{Workers: workers})
}

// EmulateClique delivers one message between every ordered node pair via
// the hierarchy (Theorem 1.3).
func EmulateClique(h *Hierarchy, seed uint64) (*CliqueResult, error) {
	return cliquemu.Hierarchical(h, rngutil.NewSource(seed))
}

// EmulateCliqueDirect is the BFS-path store-and-forward baseline.
func EmulateCliqueDirect(g *Graph) (*CliqueResult, error) { return cliquemu.Direct(g) }

// CliqueMST runs Borůvka on the emulated congested clique — an example of
// executing an off-the-shelf clique algorithm over a sparse network.
func CliqueMST(h *Hierarchy, seed uint64) (*cliquealgo.MSTResult, error) {
	return cliquealgo.MST(h, seed)
}

// CliqueSum computes a global sum in one emulated clique round.
func CliqueSum(h *Hierarchy, values []float64, seed uint64) (float64, *cliquealgo.Result, error) {
	return cliquealgo.SumAggregate(h, values, seed)
}

// ApproxMinCut approximates the global minimum cut by greedy tree packing
// (trees ≤ 0 selects 2·log₂ n trees).
func ApproxMinCut(g *Graph, trees int, seed uint64) (*MinCutResult, error) {
	return mincut.Approx(g, trees, rngutil.NewRand(seed))
}

// ExactMinCut computes the exact minimum cut (Stoer–Wagner).
func ExactMinCut(g *Graph) (value float64, side []bool, err error) {
	return mincut.StoerWagner(g)
}

// MixingTime computes the exact mixing time (Definition 2.1) by dense
// distribution evolution; feasible for small graphs.
func MixingTime(g *Graph, kind WalkKind, maxSteps int) (int, error) {
	return spectral.MixingTime(g, kind, maxSteps)
}

// EstimateMixingTime returns the spectral mixing-time estimate used for
// larger graphs.
func EstimateMixingTime(g *Graph, kind WalkKind) int {
	return spectral.MixingTimeEstimate(g, kind)
}

// EdgeExpansion computes h(G) exactly (n ≤ 24).
func EdgeExpansion(g *Graph) float64 { return spectral.EdgeExpansion(g) }

// EdgeExpansionEstimate upper-bounds h(G) by a Fiedler sweep cut.
func EdgeExpansionEstimate(g *Graph) float64 { return spectral.EdgeExpansionSweep(g) }
