//go:build !amd64

package rngutil

// hasFillVector is false off amd64: Fill takes the scalar loop alone.
const hasFillVector = false

// fillVector is the scalar loop where there is no vector one.
func fillVector(c Column, dst []uint64, a0 uint64) { c.fillScalar(dst, a0) }
