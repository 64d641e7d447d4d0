package randomwalk

// The dense and the touched-list step against each other: on any graph and
// any sources, forcing either step through run, with either move pass,
// must give the same endpoints, statistics, recomputed paths and probe
// output, whichever one Run would have picked. All share one replay, so
// its paths, runs and reverse charge are also held to the reference's.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// stepProbe is a trace sink that also keeps every step's edge loads, which
// the sink's exports leave out.
type stepProbe struct {
	*congest.TraceSink
	loads [][]int64
}

func (p *stepProbe) RoundEnd(rec *congest.RoundRecord) {
	p.TraceSink.RoundEnd(rec)
	p.loads = append(p.loads, slices.Clone(rec.EdgeLoad))
}

// stepsAgree runs one recording, traced walk run through each step, each
// with the scalar move pass and, where moveVector runs, with the vector
// one, and reports the first output on which a run differs from the
// scalar touched-list run, or on which the replay differs from the
// reference: refRun's paths, the runs of their canonical half-edges and
// refReverseDeliveryRounds over them.
func stepsAgree(g *graph.Graph, sources []int32, kind spectral.WalkKind, steps int, seed uint64) error {
	type outcome struct {
		res   *Result
		paths [][]int32
		links [][]int32
		rev   int
		trace []byte
		loads [][]int64
	}
	passes := []struct {
		name          string
		vector, dense bool
	}{
		{"scalar touched list", false, false}, {"scalar dense", false, true},
		{"vector touched list", true, false}, {"vector dense", true, true},
	}
	if !rngutil.HasAVX512() {
		passes = passes[:2]
	}
	out := make([]outcome, len(passes))
	for k, p := range passes {
		probe := &stepProbe{TraceSink: congest.NewTraceSink()}
		cfg := Config{Kind: kind, Steps: steps, Record: true, Probe: probe, TraceName: "steps"}
		o := &out[k]
		withMovePass(p.vector, func() { o.res = run(g, sources, cfg, rngutil.NewRand(seed), p.dense) })
		o.paths, o.links, o.rev = o.res.Paths(nil)
		var buf bytes.Buffer
		if err := probe.WriteJSON(&buf); err != nil {
			return err
		}
		if err := probe.WriteCSV(&buf); err != nil {
			return err
		}
		o.trace, o.loads = buf.Bytes(), probe.loads
	}
	base := out[0]
	for k, o := range out[1:] {
		name := passes[k+1].name
		switch {
		case !slices.Equal(base.res.Ends, o.res.Ends):
			return fmt.Errorf("%s: ends differ", name)
		case !reflect.DeepEqual(base.res.Stats, o.res.Stats):
			return fmt.Errorf("%s: stats %+v, scalar touched list %+v", name, o.res.Stats, base.res.Stats)
		case !reflect.DeepEqual(base.paths, o.paths) || !reflect.DeepEqual(base.links, o.links) || base.rev != o.rev:
			return fmt.Errorf("%s: paths differ", name)
		case !bytes.Equal(base.trace, o.trace):
			return fmt.Errorf("%s: trace bytes differ", name)
		case !reflect.DeepEqual(base.loads, o.loads):
			return fmt.Errorf("%s: probe edge loads differ", name)
		}
	}
	ref := refRun(g, sources, Config{Kind: kind, Steps: steps}, rngutil.NewRand(seed))
	switch {
	case !reflect.DeepEqual(base.paths, ref.paths):
		return fmt.Errorf("replayed paths differ from the reference")
	case !reflect.DeepEqual(base.links, refRuns(g, ref.paths)):
		return fmt.Errorf("replayed runs differ from the reference")
	case base.rev != refReverseDeliveryRounds(ref.paths, nil):
		return fmt.Errorf("reverse charge %d, reference %d", base.rev, refReverseDeliveryRounds(ref.paths, nil))
	}
	return nil
}

// refRuns is each path's run: every hop u → v as u's last port to v, its
// canonical half-edge, with the stays left out.
func refRuns(g *graph.Graph, paths [][]int32) [][]int32 {
	start, _ := g.CSR()
	runs := make([][]int32, len(paths))
	for k, p := range paths {
		runs[k] = []int32{}
		for s := 1; s < len(p); s++ {
			if u, v := int(p[s-1]), int(p[s]); u != v {
				runs[k] = append(runs[k], start[u]+int32(g.Port(u, v)))
			}
		}
	}
	return runs
}

// randomStepCase draws a multigraph on 1–12 nodes with up to 3n edges
// between random distinct endpoints — parallel edges are common, a node no
// edge picks stays isolated, and one case in eight has no edges at all —
// and up to three times as many walks as histogram slots, from random
// nodes.
func randomStepCase(r *rand.Rand) (*graph.Graph, []int32) {
	n := 1 + r.IntN(12)
	m := 0
	if n > 1 && r.IntN(8) != 0 {
		m = r.IntN(3*n + 1)
	}
	edges := make([]graph.Edge, m)
	for e := range edges {
		u, v := r.IntN(n), r.IntN(n-1)
		if v >= u {
			v++
		}
		edges[e] = graph.Edge{U: u, V: v, W: 1}
	}
	g := graph.FromEdges(n, edges)
	sources := make([]int32, r.IntN(3*(2*g.M()+n)+1))
	for i := range sources {
		sources[i] = int32(r.IntN(n))
	}
	return g, sources
}

// TestRunStepsAgree: on random multigraphs, the dense and the touched-list
// step, each with the scalar and the vector move pass, give equal
// endpoints, statistics, paths and trace bytes.
func TestRunStepsAgree(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.NewRand(seed)
		g, sources := randomStepCase(r)
		kind := spectral.Lazy
		if r.IntN(2) == 1 {
			kind = spectral.Regular
		}
		if err := stepsAgree(g, sources, kind, r.IntN(21), seed); err != nil {
			t.Logf("seed %d: n=%d m=%d walks=%d %v: %v", seed, g.N(), g.M(), len(sources), kind, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// encodeStepCase is the byte form FuzzRunSteps decodes: n−1 (uint16), the
// walk kind (odd for 2Δ-regular), the steps, each edge as two uint16 endpoints, a pair of equal
// endpoints to end the edges, then one uint16 start node per walk.
func encodeStepCase(g *graph.Graph, sources []int32, kind spectral.WalkKind, steps int) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(g.N()-1))
	regular := byte(0)
	if kind == spectral.Regular {
		regular = 1
	}
	b = append(b, regular, byte(steps))
	for e := range g.M() {
		b = binary.LittleEndian.AppendUint16(b, uint16(g.Edge(e).U))
		b = binary.LittleEndian.AppendUint16(b, uint16(g.Edge(e).V))
	}
	b = append(b, 0, 0, 0, 0)
	for _, s := range sources {
		b = binary.LittleEndian.AppendUint16(b, uint16(s))
	}
	return b
}

// decodeStepCase reads encodeStepCase's form, taking node IDs modulo n and
// the steps modulo 32, or reports that b is too short to hold a header.
func decodeStepCase(b []byte) (g *graph.Graph, sources []int32, kind spectral.WalkKind, steps int, ok bool) {
	if len(b) < 4 {
		return nil, nil, 0, 0, false
	}
	n := 1 + int(binary.LittleEndian.Uint16(b))
	kind = spectral.Lazy
	if b[2]&1 == 1 {
		kind = spectral.Regular
	}
	steps, b = int(b[3]%32), b[4:]
	node := func() int {
		v := int(binary.LittleEndian.Uint16(b)) % n
		b = b[2:]
		return v
	}
	var edges []graph.Edge
	for len(b) >= 4 {
		u, v := node(), node()
		if u == v {
			break
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	for len(b) >= 2 {
		sources = append(sources, int32(node()))
	}
	return graph.FromEdges(n, edges), sources, kind, steps, true
}

// FuzzRunSteps: on the graph and sources a fuzz input encodes, the dense
// and the touched-list step agree, with either move pass. The seeds are
// the walk fixtures that fit the 16-bit form, at their fixture sources.
func FuzzRunSteps(f *testing.F) {
	for name, g := range walkFixtures() {
		if g.N() > 1<<16 {
			continue
		}
		for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
			f.Add(encodeStepCase(g, fixtureSources(g), kind, 17))
		}
		if name == "isolated" {
			f.Add(encodeStepCase(graph.Build(g.N(), func(func(u, v int, w float64)) {}), fixtureSources(g), spectral.Lazy, 9))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, sources, kind, steps, ok := decodeStepCase(b)
		if !ok {
			return
		}
		if err := stepsAgree(g, sources, kind, steps, 11); err != nil {
			t.Fatalf("n=%d m=%d walks=%d %v steps=%d: %v", g.N(), g.M(), len(sources), kind, steps, err)
		}
	})
}

// benchResult keeps BenchmarkRun's runs from being optimised away.
var benchResult *Result

// benchPaths keeps BenchmarkRun's replays from being optimised away.
var benchPaths [][]int32

// BenchmarkRun times one Run per iteration and reports ns per walk step
// on the shapes of the walk layer's three callers, each with the scalar
// and the vector move pass: dense is a level walk of Build (2Δ-regular,
// recorded, far more walks than histogram slots), sparse is one lazy walk
// per node for 30 steps, and prep48 and prep384 are route's preparation on
// serve-expander's base graph (lazy, 48 or 384 walks of 23 steps, fewer
// walks than slots). Run takes the dense step on the first and the
// touched-list step on the others. replay times Result.Paths instead, in
// ns per replayed step: a third of the lazy walks of a G0 on rr(32, 8),
// kept the way buildG0 keeps them.
func BenchmarkRun(b *testing.B) {
	rr48 := graph.RandomRegular(48, 8, rngutil.NewRand(1))
	for _, bc := range []struct {
		name  string
		g     *graph.Graph
		walks int // per node
		cfg   Config
	}{
		{"dense", graph.RandomRegular(256, 20, rngutil.NewRand(1)), 160, Config{Kind: spectral.Regular, Steps: 20, Record: true}},
		{"sparse", rr48, 1, Config{Kind: spectral.Lazy, Steps: 30}},
		{"prep48", rr48, 1, Config{Kind: spectral.Lazy, Steps: 23}},
		{"prep384", rr48, 8, Config{Kind: spectral.Lazy, Steps: 23}},
	} {
		counts := make([]int, bc.g.N())
		for v := range counts {
			counts[v] = bc.walks
		}
		sources := SourcesPerNode(counts)
		for _, pass := range []struct {
			name   string
			vector bool
		}{{"scalar", false}, {"vector", true}} {
			b.Run(bc.name+"/"+pass.name, func(b *testing.B) {
				if pass.vector {
					skipMoveVector(b)
				}
				rng := rngutil.NewRand(2)
				b.ResetTimer()
				withMovePass(pass.vector, func() {
					for range b.N {
						benchResult = Run(bc.g, sources, bc.cfg, rng)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sources)*bc.cfg.Steps), "ns/step")
			})
		}
	}
	g := graph.RandomRegular(32, 8, rngutil.NewRand(1))
	counts := make([]int, g.N())
	for v := range counts {
		counts[v] = 64
	}
	sources := SourcesPerNode(counts)
	const steps = 30
	res := Run(g, sources, Config{Kind: spectral.Lazy, Steps: steps, Record: true}, rngutil.NewRand(2))
	var keep []int
	for i := 0; i < len(sources); i += 3 {
		keep = append(keep, i)
	}
	b.Run("replay", func(b *testing.B) {
		for range b.N {
			benchPaths, _, _ = res.Paths(keep)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keep)*steps), "ns/step")
	})
}
