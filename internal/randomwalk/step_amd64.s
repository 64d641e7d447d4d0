#include "textflag.h"

// func moveVector(start []int32, half []graph.Halfedge, d draws, stay int32, x []uint64, at, to, bin []int32)
//
// Each block moves eight tokens, one per qword lane, by draws.pick's rule:
//
//   - v is the block's eight nodes, zero-extended. One gather of the 8
//     bytes at &start[v] reads start[v] into a lane's low half and
//     start[v+1] into its high half: lo, and deg = start[v+1] − lo.
//   - m is deg for a lazy walk and 2Δ for a 2Δ-regular one, blended on
//     the kind mask K4 (all lanes for 2Δ-regular, none for lazy) set once
//     per call. slot = ⌊x·m/2⁶⁴⌋ = (x_hi·m + ⌊x_lo·m/2³²⌋) ≫ 32, two
//     VPMULUDQ: exact, with no carry out of 64 bits, for m < 2³², which
//     both deg and 2Δ are.
//   - The move mask is slot < deg, and x odd for a lazy walk (K4 makes
//     every lane "odd" for a 2Δ-regular one): pick's rule.
//   - A gather masked to the moving lanes reads half[lo+slot], {To, Arc}
//     in one qword, over a register holding {v, stay+v}: its low half is
//     then to and its high half bin, stored with VPMOVQD.
//
// Every read stays in bounds. Every entry of at is a node: Run counts
// tokensAt[s]++ for each source, a Go bounds check, before the first
// step, and every later entry is a CSR To. So v < n and the 8-byte read at
// &start[v] ends at start[v+1], within len(start) = n+1. A lane reads half
// only when it moves, and then slot < deg, so lo+slot < start[v+1] ≤
// len(half); a graph without edges has no moving lane, and the caller
// hands noHalf for half. at is read a block before the block's to is
// written, so to may alias it.
TEXT ·moveVector(SB), NOSPLIT, $0-176
	MOVQ at_len+112(FP), CX
	SHRQ $3, CX
	JZ   done

	MOVQ start_base+0(FP), SI
	MOVQ half_base+24(FP), DI
	MOVQ x_base+80(FP), R8
	MOVQ at_base+104(FP), R9
	MOVQ to_base+128(FP), R10
	MOVQ bin_base+152(FP), R11

	MOVQ         d_twoDelta+64(FP), AX
	VPBROADCASTQ AX, Z20
	MOVL         stay+72(FP), AX
	VPBROADCASTQ AX, Z21
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z22
	MOVBLZX      d_lazy+56(FP), AX
	DECL         AX // 0 for a lazy walk, all ones for a 2Δ-regular one
	KMOVB        AX, K4

loop:
	VPMOVZXDQ  (R9), Z0
	KXNORB     K0, K0, K1
	VPXORQ     Z1, Z1, Z1
	VPGATHERQQ (SI)(Z0*4), K1, Z1 // start[v] | start[v+1]<<32
	VPSLLQ     $32, Z1, Z3
	VPSRLQ     $32, Z3, Z3        // lo
	VPSRLQ     $32, Z1, Z2
	VPSUBQ     Z3, Z2, Z2         // deg
	VPBLENDMQ  Z20, Z2, K4, Z4    // m

	VMOVDQU64 (R8), Z5  // x
	VPSRLQ    $32, Z5, Z6
	VPMULUDQ  Z4, Z5, Z7
	VPSRLQ    $32, Z7, Z7
	VPMULUDQ  Z4, Z6, Z6
	VPADDQ    Z7, Z6, Z6
	VPSRLQ    $32, Z6, Z6 // slot

	VPTESTMQ Z22, Z5, K3
	KORB     K4, K3, K3
	VPCMPUQ  $1, Z2, Z6, K3, K2 // move: slot < deg, and x odd for a lazy walk

	VPADDQ     Z3, Z6, Z6
	VPADDQ     Z21, Z0, Z8
	VPSLLQ     $32, Z8, Z8
	VPORQ      Z0, Z8, Z8         // {v, stay+v}
	VPGATHERQQ (DI)(Z6*8), K2, Z8 // {To, Arc} where the token moves
	VPMOVQD    Z8, (R10)
	VPSRLQ     $32, Z8, Z8
	VPMOVQD    Z8, (R11)

	ADDQ $32, R9
	ADDQ $64, R8
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
