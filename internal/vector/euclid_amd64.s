#include "textflag.h"

// func eaBlocks(a, b *float32, blocks int, limit float64) float64
//
// Per 16-element block, exactly earlyAbandonGo's arithmetic in its order:
// float32 differences (VSUBPS), widened to float64 (VCVTPS2PD), squared
// and added into four lanes, lane k taking elements k, k+4, k+8, k+12;
// then sum += ((s0+s1)+s2)+s3 and the abandon test. No FMA: the Go loop
// rounds every product before its add.
TEXT ·eaBlocks(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   blocks+16(FP), CX
	VMOVSD limit+24(FP), X7
	VXORPD X6, X6, X6

loop:
	TESTQ CX, CX
	JEQ   ret

	// d0..d7 in Y0, d8..d15 in Y1, as float32.
	VMOVUPS (SI), Y0
	VSUBPS  (DI), Y0, Y0
	VMOVUPS 32(SI), Y1
	VSUBPS  32(DI), Y1, Y1

	// Widen: Y2 = d0..d3, Y3 = d4..d7, Y4 = d8..d11, Y5 = d12..d15.
	VCVTPS2PD    X0, Y2
	VEXTRACTF128 $1, Y0, X0
	VCVTPS2PD    X0, Y3
	VCVTPS2PD    X1, Y4
	VEXTRACTF128 $1, Y1, X1
	VCVTPS2PD    X1, Y5

	// Lanes s0..s3 in Y2.
	VMULPD Y2, Y2, Y2
	VMULPD Y3, Y3, Y3
	VADDPD Y3, Y2, Y2
	VMULPD Y4, Y4, Y4
	VADDPD Y4, Y2, Y2
	VMULPD Y5, Y5, Y5
	VADDPD Y5, Y2, Y2

	// sum += ((s0+s1)+s2)+s3.
	VEXTRACTF128 $1, Y2, X3
	VUNPCKHPD    X2, X2, X4
	VADDSD       X4, X2, X2
	VADDSD       X3, X2, X2
	VUNPCKHPD    X3, X3, X4
	VADDSD       X4, X2, X2
	VADDSD       X2, X6, X6

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX

	// Go on while sum < limit or either is NaN (both set carry).
	VUCOMISD X7, X6
	JCS      loop

ret:
	VMOVSD X6, ret+32(FP)
	VZEROUPPER
	RET
