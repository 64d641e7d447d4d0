package randomwalk

// The dense and the touched-list step against each other: on any graph and
// any sources, forcing either step through run must give the same
// endpoints, statistics, recomputed paths and probe output, whichever one
// Run would have picked.

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

// stepsAgree runs one recording, traced walk run through each step and
// reports the first output on which they differ.
func stepsAgree(g *graph.Graph, sources []int32, kind spectral.WalkKind, steps int, seed uint64) error {
	type outcome struct {
		res   *Result
		paths [][]int32
		links [][]int32
		rev   int
		trace []byte
		loads [][]int64
	}
	var out [2]outcome
	for k, dense := range []bool{false, true} {
		probe := &stepProbe{TraceSink: congest.NewTraceSink()}
		cfg := Config{Kind: kind, Steps: steps, Record: true, Probe: probe, TraceName: "steps"}
		o := &out[k]
		o.res = run(g, sources, cfg, rngutil.NewRand(seed), dense)
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
	sparse, dense := out[0], out[1]
	switch {
	case !slices.Equal(sparse.res.Ends, dense.res.Ends):
		return fmt.Errorf("ends differ")
	case !reflect.DeepEqual(sparse.res.Stats, dense.res.Stats):
		return fmt.Errorf("stats %+v (touched list) vs %+v (dense)", sparse.res.Stats, dense.res.Stats)
	case !reflect.DeepEqual(sparse.paths, dense.paths) || !reflect.DeepEqual(sparse.links, dense.links) || sparse.rev != dense.rev:
		return fmt.Errorf("paths differ")
	case !bytes.Equal(sparse.trace, dense.trace):
		return fmt.Errorf("trace bytes differ")
	case !reflect.DeepEqual(sparse.loads, dense.loads):
		return fmt.Errorf("probe edge loads differ")
	}
	return nil
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
// step give equal endpoints, statistics, paths and trace bytes.
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
// and the touched-list step agree. The seeds are the walk fixtures that
// fit the 16-bit form, at their fixture sources.
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

// BenchmarkRun times one Run per iteration and reports ns per walk step
// on the two shapes Run chooses between: dense is a level walk of Build
// (2Δ-regular, recorded, far more walks than histogram slots), sparse is
// route's preparation (lazy, one walk per node, fewer walks than slots).
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name  string
		g     *graph.Graph
		walks int // per node
		cfg   Config
	}{
		{"dense", graph.RandomRegular(256, 20, rngutil.NewRand(1)), 160, Config{Kind: spectral.Regular, Steps: 20, Record: true}},
		{"sparse", graph.RandomRegular(48, 8, rngutil.NewRand(1)), 1, Config{Kind: spectral.Lazy, Steps: 30}},
	} {
		counts := make([]int, bc.g.N())
		for v := range counts {
			counts[v] = bc.walks
		}
		sources := SourcesPerNode(counts)
		b.Run(bc.name, func(b *testing.B) {
			rng := rngutil.NewRand(2)
			b.ResetTimer()
			for range b.N {
				benchResult = Run(bc.g, sources, bc.cfg, rng)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sources)*bc.cfg.Steps), "ns/step")
		})
	}
}
