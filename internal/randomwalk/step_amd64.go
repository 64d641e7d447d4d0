package randomwalk

import (
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// hasMoveVector reports whether a step's move pass runs moveVector: the
// CPU has AVX-512F and AVX-512DQ, by rngutil's one check. It is a variable
// only so that the package's tests can turn the vector pass off and hold
// the scalar loop to it on the same host.
var hasMoveVector = rngutil.HasAVX512()

// moveVector is moveScalar over len(at)/8 whole blocks of eight tokens,
// one token per 64-bit lane, with AVX-512 gathers for the CSR lookups; it
// writes the same to and bin to the bit. x, to and bin hold at least
// len(at) entries, and to may be at itself. It must only be called when
// hasMoveVector holds, with every entry of at a node of the graph start
// and half are the CSR of, and with a non-empty half (noHalf when the
// graph has no edges); step_amd64.s says why its reads stay in bounds.
//
//go:noescape
func moveVector(start []int32, half []graph.Halfedge, d draws, stay int32, x []uint64, at, to, bin []int32)
