package randomwalk

// The move pass's assembly kernel against its scalar loop: on the same
// chunk and draws, moveVector must write moveScalar's next node and bin in
// every lane of its whole eights, and nothing past them.

import (
	"fmt"
	"slices"
	"testing"

	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// skipMoveVector skips a test of the vector pass where moveVector does not
// run, saying why.
func skipMoveVector(t testing.TB) {
	if !rngutil.HasAVX512() {
		t.Skip("this CPU has no AVX-512F and AVX-512DQ, or the OS does not save the ZMM state: the steps take the scalar move pass only")
	}
}

// withMovePass runs f with the vector move pass turned on or off, then
// puts hasMoveVector back.
func withMovePass(vector bool, f func()) {
	defer func(was bool) { hasMoveVector = was }(hasMoveVector)
	hasMoveVector = vector
	f()
}

// moveMatches moves the tokens at by the draws x through both loops, with
// to aliasing at or in a buffer of its own, and reports the first lane of
// the whole eights where moveVector's next node or bin differs from
// moveScalar's, or any entry past them that moveVector wrote.
func moveMatches(g *graph.Graph, d draws, x []uint64, at []int32, alias bool) error {
	start, half := g.CSR()
	if len(half) == 0 {
		half = noHalf
	}
	stay := int32(2 * g.M())
	n := len(at)
	wantTo, wantBin := make([]int32, n), make([]int32, n)
	moveScalar(start, half, d, stay, x, at, wantTo, wantBin)

	const sentinel = -7
	in := slices.Clone(at)
	to, bin := make([]int32, n), make([]int32, n)
	for i := range to {
		to[i], bin[i] = sentinel, sentinel
	}
	if alias {
		to = in
	}
	moveVector(start, half, d, stay, x, in, to, bin)
	whole := n &^ 7
	for i := range n {
		wantT, wantB := wantTo[i], wantBin[i]
		if i >= whole {
			wantT, wantB = sentinel, sentinel
			if alias {
				wantT = at[i]
			}
		}
		if to[i] != wantT || bin[i] != wantB {
			return fmt.Errorf("n=%d m=%d lazy=%v walks=%d alias=%v: lane %d (node %d, x %#x): to %d bin %d, want %d %d",
				g.N(), g.M(), d.lazy, n, alias, i, at[i], x[i], to[i], bin[i], wantT, wantB)
		}
	}
	return nil
}

// TestMoveVectorMatchesScalar: moveVector writes moveScalar's next nodes
// and bins for every chunk length up to 1 100, both walk kinds and random
// multigraphs with isolated nodes and parallel edges (m = 0 through
// noHalf among them), with tokens on node n − 1, whose 8-byte start read
// ends at start[n], and with to aliasing the chunk and not. The draws are
// a column's, with every eighth replaced by 0, 2⁶⁴ − 1 or 2⁶³; the walk
// fixtures add the wide stars, whose hubs (node 0, on every eighth token)
// reduce past 16-bit degrees.
func TestMoveVectorMatchesScalar(t *testing.T) {
	t.Logf("rngutil.HasAVX512() = %v", rngutil.HasAVX512())
	skipMoveVector(t)
	r := rngutil.NewRand(13)
	special := []uint64{0, ^uint64(0), 1 << 63}
	check := func(g *graph.Graph, kind spectral.WalkKind, walks int) {
		t.Helper()
		d := draws{key: r.Uint64(), lazy: kind == spectral.Lazy, twoDelta: uint64(2 * g.MaxDegree())}
		x := make([]uint64, walks)
		rngutil.MixColumn(d.key, r.Uint64N(64)).Fill(x, r.Uint64())
		at := make([]int32, walks)
		for i := range at {
			at[i] = int32(r.IntN(g.N()))
			switch i % 8 {
			case 3:
				x[i] = special[r.IntN(len(special))]
			case 5:
				at[i] = int32(g.N() - 1)
			case 6:
				at[i] = 0 // a star's hub
			}
		}
		for _, alias := range []bool{false, true} {
			if err := moveMatches(g, d, x, at, alias); err != nil {
				t.Fatal(err)
			}
		}
	}
	for walks := 0; walks <= 1100; walks++ {
		g, _ := randomStepCase(r)
		kind := spectral.Lazy
		if walks%2 == 1 {
			kind = spectral.Regular
		}
		check(g, kind, walks)
	}
	for _, g := range walkFixtures() {
		for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
			check(g, kind, 1027)
		}
	}
}

// FuzzMoveVector: on the graph a FuzzRunSteps input encodes, its walk
// kind and its step count as the draws' step, a fuzzed key and a chunk of
// up to 1 100 tokens, cycling over its sources (or over every node from
// n − 1 down when it has none), moveVector writes moveScalar's next nodes
// and bins, in place and not.
func FuzzMoveVector(f *testing.F) {
	for name, g := range walkFixtures() {
		if g.N() > 1<<16 {
			continue
		}
		f.Add(encodeStepCase(g, fixtureSources(g), spectral.Lazy, 3), uint64(len(name)), uint16(517))
		f.Add(encodeStepCase(g, fixtureSources(g), spectral.Regular, 7), uint64(1)<<63, uint16(64))
	}
	f.Add(encodeStepCase(graph.Build(5, func(func(u, v int, w float64)) {}), nil, spectral.Regular, 1), uint64(9), uint16(33))
	f.Fuzz(func(t *testing.T, b []byte, key uint64, length uint16) {
		skipMoveVector(t)
		g, sources, kind, step, ok := decodeStepCase(b)
		if !ok {
			return
		}
		d := draws{key: key, lazy: kind == spectral.Lazy, twoDelta: uint64(2 * g.MaxDegree())}
		at := make([]int32, length%1101)
		for i := range at {
			if len(sources) > 0 {
				at[i] = sources[i%len(sources)]
			} else {
				at[i] = int32(g.N() - 1 - i%g.N())
			}
		}
		x := make([]uint64, len(at))
		rngutil.MixColumn(key, uint64(step)).Fill(x, 0)
		for _, alias := range []bool{false, true} {
			if err := moveMatches(g, d, x, at, alias); err != nil {
				t.Fatal(err)
			}
		}
	})
}
