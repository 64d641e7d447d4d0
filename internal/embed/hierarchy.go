package embed

import (
	"fmt"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/kwise"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// Hierarchy is the complete hierarchical routing structure of §3.1: the
// virtual-node mapping, the shared partition hash, the overlays G0..Gk,
// and the per-level portal tables, together with the measured construction
// and emulation costs.
type Hierarchy struct {
	Base    *graph.Graph
	VM      *VirtualMap
	Hash    *kwise.Family
	Beta    int
	Levels  int // k: partition levels; overlays are G0..G_Levels
	TauMix  int // lazy mixing time of the base graph used for G0 walks
	G0      *Overlay
	Upper   []*Overlay     // Upper[l-1] = G_l
	Portals []*PortalTable // Portals[l-1] = portals at level l
	// Resolved records the concrete parameter values used.
	Resolved ResolvedParams
	// Costs is the construction cost ledger: one span per overlay level
	// (walk execution and endpoint replay as children, the level's
	// emulation chain as the multiplier) plus an informational
	// emulation-factors span. Its root total is the construction cost in
	// base-graph rounds; ConstructionRoundsBase reads it.
	Costs *cost.Ledger
}

// ResolvedParams is the public snapshot of the concrete values a Build
// resolved from its Params.
type ResolvedParams struct {
	Beta                int
	WalksPerVirtualNode int
	DegreeG0            int
	OverlayDegree       int
	WalkLen             int
	LeafSize            int
	HashIndependence    int
	Levels              int
}

// Build constructs the full hierarchy on base graph g. The mixing time is
// taken from p.TauMix if set, otherwise estimated spectrally. All
// randomness derives from src, so builds are reproducible.
func Build(g *graph.Graph, p Params, src *rngutil.Source) (*Hierarchy, error) {
	r, err := p.resolve(g)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("embed: base graph is disconnected (%d connected components); the single-expander hierarchy needs a connected graph — decompose into clusters first (-decomp): %w",
			len(g.Components()), graph.ErrDisconnected)
	}
	tau := p.TauMix
	if tau == 0 {
		tau = spectral.MixingTimeEstimate(g, spectral.Lazy)
	}
	// The G0 walk length, computed once: what Resolved reports is what the
	// walks run.
	walkLen := max(1, r.walkLenFactor*tau)

	vm := NewVirtualMap(g)
	// The leader draws the Θ(log² n) shared bits; conceptually they are
	// broadcast to all nodes (O(D·log n) rounds), after which every node
	// evaluates the same hash.
	hash := kwise.New(r.hashW, src.Stream("partition-hash", 0))

	h := &Hierarchy{
		Base:   g,
		VM:     vm,
		Hash:   hash,
		Beta:   r.beta,
		Levels: r.levels,
		TauMix: tau,
		Resolved: ResolvedParams{
			Beta:                r.beta,
			WalksPerVirtualNode: r.walksPerVNode,
			DegreeG0:            r.degreeG0,
			OverlayDegree:       r.overlayDegree,
			WalkLen:             walkLen,
			LeafSize:            r.leafSize,
			HashIndependence:    r.hashW,
			Levels:              r.levels,
		},
	}

	led := cost.New("construction", "base rounds")

	h.G0, err = buildG0(g, vm, r, walkLen, src.Stream("g0", 0))
	if err != nil {
		return nil, err
	}
	chargeOverlay(led, h.G0, "g0", "base rounds", 1)

	digits := computeDigits(vm, hash, r.beta, r.levels)
	below := h.G0
	for level := 1; level <= r.levels; level++ {
		overlay, err := buildLevel(level, below, digits[level-1], r, src.Stream("level", uint64(level)))
		if err != nil {
			return nil, err
		}
		portals, err := buildPortals(overlay, below, r.beta, src.Stream("portals", uint64(level)))
		if err != nil {
			return nil, err
		}
		h.Upper = append(h.Upper, overlay)
		h.Portals = append(h.Portals, portals)
		chargeOverlay(led, overlay,
			fmt.Sprintf("level-%d", level),
			fmt.Sprintf("G%d rounds", level-1),
			h.EmulationToBase(level-1))
		below = overlay
	}

	// Informational span (Mul 0): the per-level emulation factors, so
	// trace exports carry the full round-conversion chain without the
	// factors themselves being charged as construction work.
	info := led.Open("emulation-factors", "rounds of level below", 0)
	info.NewChild("g0", "base rounds per G0 round", 0).Add(h.G0.EmulationRounds)
	for l := 1; l <= r.levels; l++ {
		info.NewChild(fmt.Sprintf("level-%d", l),
			fmt.Sprintf("G%d rounds per G%d round", l-1, l), 0).Add(h.Upper[l-1].EmulationRounds)
	}
	led.Close()

	// Closing the root checks the ledger against the legacy per-overlay
	// formula: the two must agree exactly.
	led.CloseExpect(h.constructionRoundsFromOverlays())
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("embed: construction ledger: %w", err)
	}
	h.Costs = led
	return h, nil
}

// chargeOverlay opens one ledger span for a freshly built overlay, with the
// walk-execution and endpoint-replay components as children. mul converts
// the overlay's construction rounds (measured in rounds of the level below)
// into base-graph rounds.
func chargeOverlay(led *cost.Ledger, o *Overlay, name, unit string, mul int) {
	sp := led.Open(name, unit, mul)
	sp.NewChild("walks", unit, 1).Add(o.walkRounds)
	sp.NewChild("endpoint-replay", unit, 1).Add(o.replayRounds)
	led.CloseExpect(o.ConstructionRounds)
}

// Overlay returns G_level (level 0 = G0).
func (h *Hierarchy) Overlay(level int) *Overlay {
	if level == 0 {
		return h.G0
	}
	return h.Upper[level-1]
}

// PortalsAt returns the portal table of the given level (1..Levels).
func (h *Hierarchy) PortalsAt(level int) *PortalTable { return h.Portals[level-1] }

// EmulationToG0 returns the measured cost, in G0 rounds, of one round of
// G_level: the product of per-level emulation factors (Lemma 3.2's
// (log n)^{O(i)} quantity, here measured instead of assumed).
func (h *Hierarchy) EmulationToG0(level int) int {
	cost := 1
	for l := 1; l <= level; l++ {
		cost *= h.Upper[l-1].EmulationRounds
	}
	return cost
}

// EmulationToBase returns the measured cost, in base-graph rounds, of one
// round of G_level.
func (h *Hierarchy) EmulationToBase(level int) int {
	return h.EmulationToG0(level) * h.G0.EmulationRounds
}

// ConstructionRoundsBase totals the measured construction cost of all
// levels, expressed in base-graph rounds. The value is read from the
// construction cost ledger; Build verified at close time that it matches
// the per-overlay sum.
func (h *Hierarchy) ConstructionRoundsBase() int {
	if h.Costs != nil {
		return h.Costs.Root.Total()
	}
	return h.constructionRoundsFromOverlays()
}

// constructionRoundsFromOverlays is the direct per-overlay sum, kept as the
// ledger's cross-check (and the fallback for hierarchies assembled without
// Build in tests).
func (h *Hierarchy) constructionRoundsFromOverlays() int {
	total := h.G0.ConstructionRounds
	for l := 1; l <= h.Levels; l++ {
		total += h.Upper[l-1].ConstructionRounds * h.EmulationToBase(l-1)
	}
	return total
}

// DigitAt returns vid's partition digit at the given level (1..Levels).
func (h *Hierarchy) DigitAt(vid int32, level int) int32 {
	return h.Overlay(level).Digit[vid]
}

// DigitsOfID computes the partition digits of an encoded virtual-node
// identity without consulting the tables — this is property (P2): any node
// can compute any other node's position from its ID alone.
func (h *Hierarchy) DigitsOfID(encoded uint64) []int {
	return h.Hash.LeafLabel(encoded, h.Beta, h.Levels).Digits
}

// Validate checks structural invariants of the whole hierarchy: embedded
// paths are walks of the right level, endpoints match, parts refine, and
// labels agree with the shared hash. Intended for tests and audits.
func (h *Hierarchy) Validate() error {
	identity := func(vid int32) int32 { return vid }
	toOwner := func(vid int32) int32 { return int32(h.VM.Owner(vid)) }
	if err := h.G0.Validate(func(a, b int32) bool { return h.Base.HasEdge(int(a), int(b)) }, toOwner); err != nil {
		return err
	}
	below := h.G0
	for l := 1; l <= h.Levels; l++ {
		o := h.Overlay(l)
		if err := o.Validate(func(a, b int32) bool { return below.Graph.HasEdge(int(a), int(b)) }, identity); err != nil {
			return err
		}
		for vid := 0; vid < h.VM.Count(); vid++ {
			want := h.DigitsOfID(h.VM.EncodedID(int32(vid)))[l-1]
			if int(o.Digit[vid]) != want {
				return fmt.Errorf("embed: vid %d level %d digit %d != hash %d", vid, l, o.Digit[vid], want)
			}
			if o.PartOf[vid] != below.PartOf[vid]*int32(h.Beta)+o.Digit[vid] {
				return fmt.Errorf("embed: vid %d level %d part does not refine parent", vid, l)
			}
		}
		// Overlay edges must connect nodes of the same part.
		for _, e := range o.Graph.Edges() {
			if o.PartOf[e.U] != o.PartOf[e.V] {
				return fmt.Errorf("embed: level %d edge (%d,%d) crosses parts", l, e.U, e.V)
			}
		}
		below = o
	}
	return nil
}
