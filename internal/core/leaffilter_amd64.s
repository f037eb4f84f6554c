#include "textflag.h"

// func leafMaskVBMI(cols *uint8, stride, n, w int, qtab *uint8, thresh int, mask *uint64)
//
// Per block of 64 entries: for each segment, a masked, fault-suppressed
// load of the block's 64 column bytes; two VPERMI2B look the symbols up in
// the row's lower and upper 128 quantized cells, bit 7 of the symbol
// (VPMOVB2M) picks between them, and VPADDUSB adds the result into the
// block's saturating byte sums. The block's mask word has bit e set for
// each entry e in the leaf whose sum is below thresh.
TEXT ·leafMaskVBMI(SB), NOSPLIT, $0-56
	MOVQ         cols+0(FP), SI
	MOVQ         stride+8(FP), R8
	MOVQ         n+16(FP), DX
	MOVQ         w+24(FP), R9
	MOVQ         qtab+32(FP), R10
	MOVQ         thresh+40(FP), AX
	MOVQ         mask+48(FP), DI
	VPBROADCASTB AX, Z31

block:
	// K1: the block's entries — all 64, or the n left in the tail.
	MOVQ $-1, BX
	CMPQ DX, $64
	JGE  full
	MOVQ DX, CX
	MOVQ $1, BX
	SHLQ CX, BX
	DECQ BX

full:
	KMOVQ  BX, K1
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R11
	MOVQ   R10, R12
	MOVQ   R9, CX

seg:
	VMOVDQU8.Z (R11), K1, Z1
	VPMOVB2M   Z1, K2
	VMOVDQA64  Z1, Z2
	VMOVDQU64  (R12), Z3
	VPERMI2B   64(R12), Z3, Z1
	VMOVDQU64  128(R12), Z4
	VPERMI2B   192(R12), Z4, Z2
	VMOVDQU8   Z2, K2, Z1
	VPADDUSB   Z1, Z0, Z0
	ADDQ       R8, R11
	ADDQ       $256, R12
	DECQ       CX
	JNZ        seg

	VPCMPUB $1, Z31, Z0, K1, K3 // sum < thresh, in-block lanes only
	KMOVQ   K3, (DI)
	ADDQ    $8, DI
	ADDQ    $64, SI
	SUBQ    $64, DX
	JGT     block
	VZEROUPPER
	RET
