#include "textflag.h"

// laneHash<> is j·streamHash for the eight lanes j = 0..7.
DATA laneHash<>+0(SB)/8, $0
DATA laneHash<>+8(SB)/8, $0xd1342543de82ef95
DATA laneHash<>+16(SB)/8, $0xa2684a87bd05df2a
DATA laneHash<>+24(SB)/8, $0x739c6fcb9b88cebf
DATA laneHash<>+32(SB)/8, $0x44d0950f7a0bbe54
DATA laneHash<>+40(SB)/8, $0x1604ba53588eade9
DATA laneHash<>+48(SB)/8, $0xe738df9737119d7e
DATA laneHash<>+56(SB)/8, $0xb86d04db15948d13
GLOBL laneHash<>(SB), RODATA|NOPTR, $64

// func fillVector(c Column, dst []uint64, a0 uint64)
//
// Z0 holds the eight lanes' a·streamHash and advances by Z1 = 8·streamHash
// per block; each block is (key ^ a·streamHash) + b put through
// SplitMix64's finalize, as Column.At computes it one lane at a time.
TEXT ·fillVector(SB), NOSPLIT, $0-48
	MOVQ dst_base+16(FP), DI
	MOVQ dst_len+24(FP), CX
	SHRQ $3, CX
	JZ   done

	MOVQ  $0xd1342543de82ef95, AX
	MOVQ  a0+40(FP), DX
	IMULQ AX, DX
	VPBROADCASTQ DX, Z0
	VPADDQ laneHash<>(SB), Z0, Z0
	SHLQ  $3, AX
	VPBROADCASTQ AX, Z1
	MOVQ  c_key+0(FP), AX
	VPBROADCASTQ AX, Z2
	MOVQ  c_b+8(FP), AX
	VPBROADCASTQ AX, Z3
	MOVQ  $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z4
	MOVQ  $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z5

loop:
	VPXORQ  Z2, Z0, Z6
	VPADDQ  Z3, Z6, Z6
	VPSRLQ  $30, Z6, Z7
	VPXORQ  Z7, Z6, Z6
	VPMULLQ Z4, Z6, Z6
	VPSRLQ  $27, Z6, Z7
	VPXORQ  Z7, Z6, Z6
	VPMULLQ Z5, Z6, Z6
	VPSRLQ  $31, Z6, Z7
	VPXORQ  Z7, Z6, Z6
	VMOVDQU64 Z6, (DI)
	VPADDQ  Z1, Z0, Z0
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
