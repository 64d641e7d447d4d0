//go:build !amd64

package randomwalk

import "almostmix/internal/graph"

// hasMoveVector is false off amd64: a step's move pass is moveScalar
// alone. It is a variable, as on amd64, so that the package's tests build
// and toggle it the same way everywhere.
var hasMoveVector = false

// moveVector is the scalar loop where there is no vector one.
func moveVector(start []int32, half []graph.Halfedge, d draws, stay int32, x []uint64, at, to, bin []int32) {
	moveScalar(start, half, d, stay, x, at, to, bin)
}
