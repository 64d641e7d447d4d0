package rngutil

// hasFillVector reports whether fillVector runs here: the CPU has
// AVX-512F and AVX-512DQ (VPMULLQ, the 64-bit lane multiply) and the
// operating system saves the opmask and ZMM registers.
var hasFillVector = hasAVX512()

// fillVector is Fill over len(dst)/8 whole blocks of eight streams: the
// lanes' a·streamHash advance by one add per block, and the two finalize
// multiplies are VPMULLQ. It must only be called when hasFillVector holds.
//
//go:noescape
func fillVector(c Column, dst []uint64, a0 uint64)

// cpuid returns the registers CPUID writes for a leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the
// operating system saves.
func xgetbv() (eax uint32)

func hasAVX512() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX, XGETBV is usable
		xcr0ZMM  = 0xe6    // SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31
		avx512f  = 1 << 16 // CPUID.7.0:EBX
		avx512dq = 1 << 17
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	if xgetbv()&xcr0ZMM != xcr0ZMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}
