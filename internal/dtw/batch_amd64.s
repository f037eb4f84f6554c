#include "textflag.h"

// func bandLanes(q *float32, n, r int, x *[Lanes]*float32, prefix *[Lanes]*float64, lanes uint64, limit float64, room *float64, d *[Lanes]float64)
//
// Cascade's band DP (see band) with one candidate per float64 lane of a
// ZMM register. The candidates are first gathered column by column into
// room, as float64s, so column j of every lane is one 64-byte load. The
// DP rows follow at room + 64·n, n+2 cells of 64 bytes each (column j at
// cell j+1, +Inf guards on either side of the band). Cells are held as
// bit patterns, as band holds them, so the 3-way min is VPMINUQ; the
// cost is (a-x)·(a-x) rounded, then added to the min (no FMA). After each
// pair of rows, the lanes still running whose row minimum plus their
// LB_Keogh suffix reaches limit leave that bound and stop; the kernel
// returns once every reported lane has stopped. The prefix sums are lane
// strided, as lbLanes writes them: lane l's column j at prefix[l] + 64·j.
//
// Registers: SI q, R8 n, R9 r, DI the transposed points, R10 the previous
// row, R11 the current one, R12 the row i; BX walks column offsets (64
// bytes a column), DX and CX hold the last column offsets of rows i and
// i+1, R13 the first of row i+1. Z0/Z1 hold rows i and i+1's query
// points, Z2/Z3 their left neighbours, Z4 row i+1's minimum; Z26 the
// candidates' addresses, Z27 the results, Z28 limit, Z29 the LB_Keogh
// totals, Z30 the prefix arrays' addresses, Z31 +Inf; K1 the lanes still
// running.
TEXT ·bandLanes(SB), NOSPLIT, $0-72
	MOVQ         q+0(FP), SI
	MOVQ         n+8(FP), R8
	MOVQ         r+16(FP), R9
	MOVQ         x+24(FP), AX
	VMOVDQU64    (AX), Z26
	MOVQ         prefix+32(FP), AX
	VMOVDQU64    (AX), Z30
	MOVQ         lanes+40(FP), AX
	KMOVW        AX, K1
	VBROADCASTSD limit+48(FP), Z28
	MOVQ         room+56(FP), DI
	MOVQ         $0x7FF0000000000000, AX
	VPBROADCASTQ AX, Z31
	VMOVDQA64    Z31, Z27

	// Transpose: column j of every candidate, widened, at DI + 64·j.
	XORQ CX, CX
	MOVQ DI, R11

	PCALIGN $32
transpose:
	KXNORW     K2, K2, K2
	VGATHERQPS (CX)(Z26*1), K2, Y5
	VCVTPS2PD  Y5, Z5
	VMOVUPD    Z5, (R11)
	ADDQ       $4, CX
	ADDQ       $64, R11
	DECQ       R8
	JNZ        transpose
	MOVQ       n+8(FP), R8

	// The LB_Keogh totals, lane l's prefix at column n-1.
	LEAQ       -1(R8), AX
	SHLQ       $6, AX
	KXNORW     K2, K2, K2
	VGATHERQPD (AX)(Z30*1), K2, Z29

	// Row -1: 0 on cell (0,0)'s diagonal, +Inf on columns 0…r.
	MOVQ      R11, R10
	VPXORQ    Z5, Z5, Z5
	VMOVDQU64 Z5, (R10)
	LEAQ      64(R10), AX
	LEAQ      1(R9), CX

rowinit:
	VMOVDQU64 Z31, (AX)
	ADDQ      $64, AX
	DECQ      CX
	JNZ       rowinit
	LEAQ      2(R8), R11
	SHLQ      $6, R11
	ADDQ      R10, R11

	XORQ R12, R12

pair:
	LEAQ 1(R12), AX
	CMPQ AX, R8
	JGE  last

	VCVTSS2SD    (SI)(R12*4), X0, X0
	VBROADCASTSD X0, Z0
	VCVTSS2SD    4(SI)(R12*4), X1, X1
	VBROADCASTSD X1, Z1
	VMOVDQA64    Z31, Z2
	VMOVDQA64    Z31, Z3
	VMOVDQA64    Z31, Z4

	// BX = max(i-r, 0), R13 = max(i+1-r, 0), DX = min(i+r, n-1),
	// CX = min(i+1+r, n-1), all times 64.
	XORQ    AX, AX
	MOVQ    R12, BX
	SUBQ    R9, BX
	CMPQ    BX, AX
	CMOVQLT AX, BX
	SHLQ    $6, BX
	LEAQ    1(R12), R13
	SUBQ    R9, R13
	CMPQ    R13, AX
	CMOVQLT AX, R13
	SHLQ    $6, R13
	LEAQ    -1(R8), AX
	LEAQ    (R12)(R9*1), DX
	CMPQ    DX, AX
	CMOVQGT AX, DX
	SHLQ    $6, DX
	LEAQ    1(R12)(R9*1), CX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	SHLQ    $6, CX

	// Row i alone: the column before row i+1's band, if there is one.
	CMPQ      BX, R13
	JGE       both
	VMOVUPD   (DI)(BX*1), Z5
	VSUBPD    Z5, Z0, Z6
	VMULPD    Z6, Z6, Z6
	VMOVDQU64 64(R10)(BX*1), Z9
	VPMINUQ   (R10)(BX*1), Z9, Z9
	VPMINUQ   Z2, Z9, Z9
	VADDPD    Z6, Z9, Z2
	ADDQ      $64, BX

both:
	CMPQ BX, DX
	JGT  tail

	// Both rows: c = min(up, diag, left1) + (a1-x)², then row i+1's cell
	// min(c, left1, left2) + (a2-x)², whose chain waits only on left2 and c.
	PCALIGN $32
bothloop:
	VMOVUPD   (DI)(BX*1), Z5
	VSUBPD    Z5, Z0, Z6
	VMULPD    Z6, Z6, Z6
	VSUBPD    Z5, Z1, Z7
	VMULPD    Z7, Z7, Z7
	VMOVDQU64 64(R10)(BX*1), Z9
	VPMINUQ   (R10)(BX*1), Z9, Z9
	VPMINUQ   Z2, Z9, Z9
	VADDPD    Z6, Z9, Z9
	VPMINUQ   Z9, Z2, Z10
	VPMINUQ   Z10, Z3, Z10
	VADDPD    Z7, Z10, Z3
	VMOVDQA64 Z9, Z2
	VMOVDQU64 Z3, 64(R11)(BX*1)
	VPMINUQ   Z3, Z4, Z4
	ADDQ      $64, BX
	CMPQ      BX, DX
	JLE       bothloop

tail:
	// Row i+1 alone: the column after row i's band, if there is one.
	CMPQ      BX, CX
	JGT       check
	VMOVUPD   (DI)(BX*1), Z5
	VSUBPD    Z5, Z1, Z7
	VMULPD    Z7, Z7, Z7
	VPMINUQ   Z2, Z3, Z10
	VADDPD    Z7, Z10, Z3
	VMOVDQU64 Z3, 64(R11)(BX*1)
	VPMINUQ   Z3, Z4, Z4

check:
	// The guards of row i+1's band, then each running lane's bound:
	// its row minimum plus prefix[n-1] - prefix[hi].
	VMOVDQU64  Z31, (R11)(R13*1)
	VMOVDQU64  Z31, 128(R11)(CX*1)
	KXNORW     K2, K2, K2
	VGATHERQPD (CX)(Z30*1), K2, Z11
	VSUBPD     Z11, Z29, Z11
	VADDPD     Z11, Z4, Z11
	VCMPPD     $0x1D, Z28, Z11, K1, K3 // running and bound >= limit
	VMOVAPD    Z11, K3, Z27
	KANDNW     K1, K3, K1
	KORTESTW   K1, K1
	JZ         done
	XCHGQ      R10, R11
	ADDQ       $2, R12
	JMP        pair

last:
	CMPQ R12, R8
	JGE  even

	// n is odd: the last row alone.
	VCVTSS2SD    (SI)(R12*4), X0, X0
	VBROADCASTSD X0, Z0
	VMOVDQA64    Z31, Z2
	XORQ         AX, AX
	MOVQ         R12, BX
	SUBQ         R9, BX
	CMPQ         BX, AX
	CMOVQLT      AX, BX
	SHLQ         $6, BX
	LEAQ         -1(R8), DX
	SHLQ         $6, DX

	PCALIGN $32
lastloop:
	VMOVUPD   (DI)(BX*1), Z5
	VSUBPD    Z5, Z0, Z6
	VMULPD    Z6, Z6, Z6
	VMOVDQU64 64(R10)(BX*1), Z9
	VPMINUQ   (R10)(BX*1), Z9, Z9
	VPMINUQ   Z2, Z9, Z9
	VADDPD    Z6, Z9, Z2
	ADDQ      $64, BX
	CMPQ      BX, DX
	JLE       lastloop
	VMOVAPD   Z2, K1, Z27
	JMP       done

even:
	// The last pair's row i+1 is row n-1; its last cell is the distance.
	MOVQ    R8, AX
	SHLQ    $6, AX
	VMOVUPD (R10)(AX*1), K1, Z27

done:
	MOVQ      d+64(FP), AX
	VMOVUPD   Z27, (AX)
	VZEROUPPER
	RET

// func lbLanes(x *[Lanes]*float32, lower, upper *float32, n int, limit float64, prefix *float64) uint64
//
// EnvelopePrefixEarlyAbandon (internal/vector) with one candidate per
// float64 lane of a ZMM register. Column j of the candidates is gathered
// and widened, as bandLanes gathers it; its term max(x-hi, lo-x, 0)² is
// computed in float64 (the subtractions exact as the scalar ones, the max
// picking the scalar branch's difference, or 0, since lo ≤ hi), added to
// the lanes' sums, and the sums are stored at prefix + 64·j. Every 8
// columns, once each lane's sum reaches limit, the kernel stops: a term is
// never negative, so a lane that reaches limit stays there, and a lane
// that does not is never stopped. It returns a mask of the lanes whose
// sum stayed below limit.
//
// Registers: SI lower, DX upper, DI the current column's sums, CX the
// column's offset in the float32 arrays, R8 the columns left; Z0 the
// sums, Z26 the candidates' addresses, Z28 limit, Z30 zero.
TEXT ·lbLanes(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), AX
	VMOVDQU64    (AX), Z26
	MOVQ         lower+8(FP), SI
	MOVQ         upper+16(FP), DX
	MOVQ         n+24(FP), R8
	VBROADCASTSD limit+32(FP), Z28
	MOVQ         prefix+40(FP), DI
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z30, Z30, Z30
	XORQ         CX, CX

	PCALIGN $32
column:
	KXNORW       K2, K2, K2
	VGATHERQPS   (CX)(Z26*1), K2, Y5
	VCVTPS2PD    Y5, Z5
	VCVTSS2SD    (SI)(CX*1), X1, X1
	VBROADCASTSD X1, Z1
	VCVTSS2SD    (DX)(CX*1), X2, X2
	VBROADCASTSD X2, Z2
	VSUBPD       Z2, Z5, Z3 // x - hi
	VSUBPD       Z5, Z1, Z4 // lo - x
	VMAXPD       Z4, Z3, Z3
	VMAXPD       Z30, Z3, Z3
	VMULPD       Z3, Z3, Z3
	VADDPD       Z3, Z0, Z0
	VMOVUPD      Z0, (DI)
	ADDQ         $64, DI
	ADDQ         $4, CX
	DECQ         R8
	JZ           verdict
	TESTQ        $31, CX
	JNZ          column
	VCMPPD       $0x11, Z28, Z0, K3 // sum < limit
	KORTESTW     K3, K3
	JNZ          column

verdict:
	VCMPPD    $0x11, Z28, Z0, K3
	KMOVW     K3, AX
	MOVQ      AX, ret+48(FP)
	VZEROUPPER
	RET
