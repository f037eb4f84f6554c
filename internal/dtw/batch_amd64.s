#include "textflag.h"
#include "go_asm.h"

#define INF32 $0x7F800000

// BOTH(A, B) computes, for column c (AX = 64·c, the column at
// (BX)(AX*1)), row i's cell c into B, from row i-1's cells c+1 and c (its
// up and diagonal neighbours) and A, its left one: min(up, diag, A) +
// (a1-x)². It stores B over row i-1's cell c, which no later column reads,
// then computes row i+1's cell c-1, min(B, A, left2) + (a2-x)², whose chain
// waits only on left2 and B. Alternating A and B saves a move.
#define BOTH(A, B) \
	VMOVUPS   (BX)(AX*1), Z5; \
	VSUBPS    Z5, Z0, Z6; \
	VMULPS    Z6, Z6, Z6; \
	VSUBPS    Z5, Z1, Z7; \
	VMULPS    Z7, Z7, Z7; \
	VMOVDQU32 128(R10)(AX*1), B; \
	VPMINUD   64(R10)(AX*1), B, B; \
	VPMINUD   A, B, B; \
	VADDPS    Z6, B, B; \
	VMOVDQU32 B, 64(R10)(AX*1); \
	VPMINUD   B, A, Z10; \
	VPMINUD   Z10, Z3, Z10; \
	VADDPS    Z7, Z10, Z3; \
	VMOVDQU32 Z3, (R11)(AX*1); \
	VPMINUD   Z3, Z4, Z4

// func bandLanes(s *lanes, q *float32, slacked float64, drain bool) uint64
//
// The float32 band DP (pair32) with one candidate per float32 lane of a
// ZMM register, each lane at its own row. Cells are held in band
// coordinates: row i's cell k is column j = i - r + k, so row i-1's cells
// k+1 and k are cell k's up and diagonal neighbours and row i's cell k-1
// its left one, whatever row a lane is at; each row is 2r+1 cells of 64
// bytes, with +Inf guards on either side. Cells are held as bit patterns,
// so the 3-way min is VPMINUD; the cost is (a-x)·(a-x) rounded, then added
// to the min (no FMA), all in float32.
//
// A lane entering at step T reads its column j at ring column T+j, so at
// step t every lane reads ring columns t-r … t+r+1 for its row pair. A
// pair gathers columns t+r+2 and t+r+3 of every lane in flight for the
// next pair, and stores them once its cells are done; an entering lane
// writes its columns -1 … r+1 itself (+Inf outside [0, n)). When the
// ring runs out, its last 2r+2 columns move to its start and every entry
// step with them. Row i's cells are stored over row i-1's as they are
// computed, so an odd n's distance (row n-1's cell r) is there after its
// last pair.
//
// After each pair, each lane in flight takes floor32 (batch.go, which
// proves it a lower bound of the exact DP) of its row minimum or, when
// its last row is done, of its distance: c·κ in float64, or 0 when c is
// below 2^-80 or +Inf. A running lane stops once that plus its LB_Keogh
// suffix, read at its own pair, reaches slacked; a finishing lane stops,
// and is reported when its bound is below slacked. After a pair that
// reports, the kernel frees the stopped lanes and returns the reported
// ones, whose ids and candidates stay in s. Otherwise the stopped lanes
// take the queued candidates, in lane order, at the next step; an
// entering lane copies its suffix sums (total minus the prefix at each
// pair's last column) from the slab and writes its row -1. The kernel
// also returns when no lane is in flight or, unless drain, when a lane is
// free.
//
// Registers: DI s, SI q, R8 n, R9 r, R10 the previous row, R11 the
// current one, R12 the step t, R13 the ring; AX, BX, CX and DX scratch.
// Z0/Z1 hold each lane's query point of rows i and i+1, Z2/Z3 their left
// neighbours, Z4 row i+1's minimum, Z11/Z15 the suffix sums (lanes 0-7,
// 8-15), Z16/Z17 the next pair's query points, Z18/Z19 its new columns;
// Z20 2, Z21 the suffix sums' lane offsets, Z22 κ, Z23 n, Z24 n-2, Z25
// n-1, Z26/Z27 the candidates' addresses (lanes 8-15, 0-7), Z28 the entry
// steps, Z29 slacked, Z30 2^-80, Z31 +Inf. K1 holds the lanes in flight,
// K3 those finishing, K4 the others, K6 the lanes reported, K7 the lanes
// stopped; K2 and K5 are scratch.
TEXT ·bandLanes(SB), NOSPLIT, $0-40
	MOVQ         s+0(FP), DI
	MOVQ         q+8(FP), SI
	VBROADCASTSD slacked+16(FP), Z29
	VBROADCASTSD lanes_kappa(DI), Z22
	MOVQ         lanes_n(DI), R8
	MOVQ         lanes_r(DI), R9
	MOVQ         lanes_t(DI), R12
	MOVQ         lanes_ring(DI), R13
	MOVQ         lanes_prev(DI), R10
	MOVQ         lanes_cur(DI), R11
	MOVL         INF32, AX
	VPBROADCASTD AX, Z31
	MOVL         $0x17800000, AX
	VPBROADCASTD AX, Z30
	VPBROADCASTD R8, Z23
	LEAQ         -1(R8), AX
	VPBROADCASTD AX, Z25
	LEAQ         -2(R8), AX
	VPBROADCASTD AX, Z24
	MOVL         $2, AX
	VPBROADCASTD AX, Z20
	VMOVDQU32    lanes_sufIdx(DI), Z21
	MOVQ         $0, lanes_entered(DI)
	KXORW        K6, K6, K6

	// The free lanes take the queued candidates.
	MOVQ  lanes_act(DI), AX
	NOTQ  AX
	ANDQ  $0xFFFF, AX
	KMOVW AX, K7
	JMP   refill

top:
	MOVQ  lanes_act(DI), AX
	TESTQ AX, AX
	JZ    ret
	CMPQ  AX, $0xFFFF
	JEQ   pair
	CMPB  drain+24(FP), $0
	JEQ   ret

pair:
	KMOVW AX, K1

	// Out of ring: move columns t-r … t+r+1 to its start.
	LEAQ 3(R12)(R9*1), AX
	CMPQ AX, lanes_size(DI)
	JLT  columns
	MOVQ R12, AX
	SUBQ R9, AX
	MOVQ AX, BX
	SHLQ $6, BX
	ADDQ R13, BX
	MOVQ R13, CX
	LEAQ 2(R9)(R9*1), DX

rebase:
	VMOVDQU32 (BX), Z9
	VMOVDQU32 Z9, (CX)
	ADDQ      $64, BX
	ADDQ      $64, CX
	DECQ      DX
	JNZ       rebase
	SUBQ         AX, R12
	VPBROADCASTD AX, Z9
	VMOVDQU32    lanes_start(DI), Z10
	VPSUBD       Z9, Z10, Z10
	VMOVDQU32    Z10, lanes_start(DI)

columns:
	VMOVDQU32 lanes_start(DI), Z28
	VMOVDQU64 lanes_x(DI), Z27
	VMOVDQU64 lanes_x+64(DI), Z26

	// Each lane's query points of rows i = t - start and i+1, gathered by
	// the last pair or written on entry.
	MOVQ    lanes_qrow(DI), DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1

	// Gathers whose results wait for the loop's end: each running lane's
	// suffix sum of pair i/2 (the lanes with i >= n-2 finish instead, and
	// read 0), the query points of rows i+2 and i+3 (clamped to n-1: a
	// free lane's row is stale) and the next pair's ring columns.
	VPBROADCASTD  R12, Z9
	VPSUBD        Z28, Z9, Z9
	VPCMPD        $5, Z24, Z9, K1, K3
	KANDNW        K1, K3, K4
	VPADDD        Z21, Z9, Z10
	VEXTRACTI32X8 $1, Z10, Y12
	MOVQ          lanes_suf(DI), DX
	VPXORQ        Z11, Z11, Z11
	VPXORQ        Z15, Z15, Z15
	KMOVW         K4, K2
	KSHIFTRW      $8, K4, K5
	VGATHERDPD    (DX)(Y10*4), K2, Z11
	VGATHERDPD    (DX)(Y12*4), K5, Z15
	VPADDD        Z20, Z9, Z9
	VPMINUD       Z25, Z9, Z10
	KXNORW        K2, K2, K2
	VGATHERDPS    (SI)(Z10*4), K2, Z16
	VPTERNLOGD    $0xFF, Z12, Z12, Z12
	VPSUBD        Z12, Z9, Z10
	VPMINUD       Z25, Z10, Z10
	KXNORW        K2, K2, K2
	VGATHERDPS    (SI)(Z10*4), K2, Z17

	// Ring columns AX and AX+1 of lane l: its points AX - start[l] and the
	// next, or +Inf outside [0, n).
	LEAQ          2(R12)(R9*1), AX
	VPBROADCASTD  AX, Z12
	VPSUBD        Z28, Z12, Z12
	VPCMPUD       $1, Z23, Z12, K1, K2
	VPCMPUD       $1, Z25, Z12, K1, K5
	VEXTRACTI32X8 $1, Z12, Y13
	VPMOVSXDQ     Y12, Z12
	VPMOVSXDQ     Y13, Z13
	VPSLLQ        $2, Z12, Z12
	VPADDQ        Z27, Z12, Z12
	VPSLLQ        $2, Z13, Z13
	VPADDQ        Z26, Z13, Z13
	XORQ          BX, BX
	KSHIFTRW      $8, K2, K7
	VMOVAPS       Y31, Y18
	VGATHERQPS    (BX)(Z12*1), K2, Y18
	VMOVAPS       Y31, Y9
	VGATHERQPS    (BX)(Z13*1), K7, Y9
	VINSERTF32X8  $1, Y9, Z18, Z18
	KSHIFTRW      $8, K5, K7
	VMOVAPS       Y31, Y19
	VGATHERQPS    4(BX)(Z12*1), K5, Y19
	VMOVAPS       Y31, Y9
	VGATHERQPS    4(BX)(Z13*1), K7, Y9
	VINSERTF32X8  $1, Y9, Z19, Z19

	// Column 0: row i's cell 0 alone (its left neighbour is a guard).
	MOVQ      R12, BX
	SUBQ      R9, BX
	SHLQ      $6, BX
	ADDQ      R13, BX
	VMOVUPS   (BX), Z5
	VSUBPS    Z5, Z0, Z6
	VMULPS    Z6, Z6, Z6
	VMOVDQU32 128(R10), Z2
	VPMINUD   64(R10), Z2, Z2
	VADDPS    Z6, Z2, Z2
	VMOVDQU32 Z2, 64(R10)
	VMOVDQA32 Z31, Z3
	VMOVDQA32 Z31, Z4
	MOVQ      $64, AX
	MOVQ      R9, CX
	SHLQ      $7, CX
	CMPQ      AX, CX
	JGT       right

	// Columns 1 … 2r, two at a time.
	PCALIGN $32
both:
	BOTH(Z2, Z8)
	ADDQ $64, AX
	BOTH(Z8, Z2)
	ADDQ $64, AX
	CMPQ AX, CX
	JLE  both

right:
	// Column 2r+1: row i+1's cell 2r alone (its up neighbour is a guard).
	VMOVUPS   (BX)(AX*1), Z5
	VSUBPS    Z5, Z1, Z7
	VMULPS    Z7, Z7, Z7
	VPMINUD   Z2, Z3, Z10
	VADDPS    Z7, Z10, Z3
	VMOVDQU32 Z3, (R11)(AX*1)
	VPMINUD   Z3, Z4, Z4

	// The next pair's columns and query points, stored only now: a store
	// waiting on its gather would hold up the loads above.
	LEAQ    2(R12)(R9*1), AX
	SHLQ    $6, AX
	VMOVUPS Z18, (R13)(AX*1)
	VMOVUPS Z19, 64(R13)(AX*1)
	MOVQ    lanes_qrow(DI), DX
	VMOVUPS Z16, (DX)
	VMOVUPS Z17, 64(DX)

	// A finishing lane's distance, in place of its row minimum: cell r
	// (column i+1) of row i+1, or of row i, stored in place of row i-1,
	// for an odd n.
	MOVQ  R9, DX
	SHLQ  $6, DX
	LEAQ  64(R11)(DX*1), AX
	TESTQ $1, R8
	JZ    finished
	LEAQ  64(R10)(DX*1), AX

finished:
	VMOVDQU32 (AX), K3, Z4

	// Each lane's bound: floor32 of Z4 plus its suffix sum.
	VPCMPUD       $5, Z30, Z4, K1, K2 // 2^-80 <= c
	VPCMPUD       $1, Z31, Z4, K2, K2 // and c < +Inf
	VPXORQ        Z12, Z12, Z12
	VMOVDQU32     Z4, K2, Z12
	VEXTRACTF32X8 $1, Z12, Y13
	VCVTPS2PD     Y12, Z12
	VCVTPS2PD     Y13, Z13
	VMULPD        Z22, Z12, Z12
	VMULPD        Z22, Z13, Z13
	VADDPD        Z11, Z12, Z12
	VADDPD        Z15, Z13, Z13
	VCMPPD        $0x1D, Z29, Z12, K2 // bound >= slacked
	VCMPPD        $0x1D, Z29, Z13, K5
	KUNPCKBW      K2, K5, K5
	KANDW         K5, K4, K2
	KORW          K2, K3, K7          // abandoning or finishing
	KANDNW        K3, K5, K6          // finishing below slacked
	XCHGQ         R10, R11
	ADDQ          $2, R12
	KORTESTW      K6, K6
	JZ            refill

	// Reported: the stopped lanes take candidates at the next call.
	KMOVW K7, AX
	NOTQ  AX
	ANDQ  AX, lanes_act(DI)
	JMP   ret

refill:
	// Lane CX (the lowest stopped) takes slot DX (the first queued).
	KMOVW K7, AX
	TESTQ AX, AX
	JZ    top
	BSFQ  AX, CX
	BTRQ  CX, AX
	KMOVW AX, K7
	MOVQ  lanes_queue(DI), DX
	TESTQ DX, DX
	JZ    idle
	BSFQ  DX, BX
	BTRQ  BX, DX
	MOVQ  DX, lanes_queue(DI)
	MOVQ  BX, DX
	MOVQ  lanes_act(DI), AX
	BTSQ  CX, AX
	MOVQ  AX, lanes_act(DI)
	MOVQ  lanes_entered(DI), AX
	BTSQ  CX, AX
	MOVQ  AX, lanes_entered(DI)
	MOVL  R12, lanes_start(DI)(CX*4)
	MOVB  DL, lanes_took(DI)(CX*1)
	MOVL  lanes_pid(DI)(DX*4), AX
	MOVL  AX, lanes_id(DI)(CX*4)
	LEAQ  (DX)(DX*2), AX
	MOVQ  lanes_px(DI)(AX*8), AX
	MOVQ  AX, lanes_x(DI)(CX*8)

	// Its query points of rows 0 and 1 (0 again when n = 1).
	MOVQ   lanes_qrow(DI), AX
	VMOVSS (SI), X13
	VMOVSS X13, (AX)(CX*4)
	CMPQ   R8, $1
	JEQ    one
	VMOVSS 4(SI), X13

one:
	VMOVSS X13, 64(AX)(CX*4)

	// Its suffix sums: total - prefix[min(1+r+2m, n-1)], eight pairs m a
	// gather.
	MOVQ         lanes_stride(DI), AX
	TESTQ        AX, AX
	JZ           ringcols
	MOVQ         lanes_slab(DI), BX
	LEAQ         (BX)(DX*8), BX
	LEAQ         -1(R8), DX
	SHLQ         $6, DX
	VPBROADCASTQ DX, Z9
	VBROADCASTSD (BX)(DX*1), Z10
	VMOVDQU64    lanes_hiOff(DI), Z12
	MOVQ         $1024, DX
	VPBROADCASTQ DX, Z14
	MOVQ         AX, DX
	SHRQ         $3, DX
	IMULQ        CX, AX
	SHLQ         $3, AX
	ADDQ         lanes_suf(DI), AX

suffix:
	VPMINUQ    Z9, Z12, Z5
	KXNORW     K2, K2, K2
	VGATHERQPD (BX)(Z5*1), K2, Z13
	VSUBPD     Z13, Z10, Z13
	VMOVUPD    Z13, (AX)
	ADDQ       $64, AX
	VPADDQ     Z14, Z12, Z12
	DECQ       DX
	JNZ        suffix

ringcols:
	// Its ring columns t-1 (+Inf, when r > 0) and t … t+r+1 (points
	// 0 … r+1, +Inf from n on). Columns left of -1 keep what they hold:
	// every cell left of column -1 has +Inf neighbours only, and every
	// cell of it costs +Inf, so their cells are +Inf whatever the points.
	MOVQ  R12, AX
	SHLQ  $6, AX
	ADDQ  R13, AX
	LEAQ  (AX)(CX*4), AX
	TESTQ R9, R9
	JZ    points
	MOVL  INF32, -64(AX)

points:
	MOVQ    lanes_x(DI)(CX*8), BX
	LEAQ    2(R9), DX
	CMPQ    DX, R8
	CMOVQGT R8, DX

ringpts:
	VMOVSS (BX), X13
	VMOVSS X13, (AX)
	ADDQ   $4, BX
	ADDQ   $64, AX
	DECQ   DX
	JNZ    ringpts
	LEAQ   1(R9), DX
	CMPQ   DX, R8
	JLT    startrow
	MOVL   INF32, (AX)

startrow:
	// Its row -1: 0 on cell (0,0)'s diagonal (cell r), +Inf elsewhere,
	// blended into whole lines: the next pair loads them whole, and a
	// load cannot take its bytes from narrower stores still in flight.
	MOVQ  $1, BX
	SHLQ  CX, BX
	KMOVW BX, K2
	LEAQ  64(R10), AX
	MOVQ  R9, DX
	TESTQ DX, DX
	JZ    diagonal

rowleft:
	VMOVDQU32 (AX), Z13
	VMOVDQA32 Z31, K2, Z13
	VMOVDQU32 Z13, (AX)
	ADDQ      $64, AX
	DECQ      DX
	JNZ       rowleft

diagonal:
	VMOVDQU32 (AX), Z13
	VPXORD    Z13, Z13, K2, Z13
	VMOVDQU32 Z13, (AX)
	ADDQ      $64, AX
	MOVQ      R9, DX
	TESTQ     DX, DX
	JZ        refill

rowright:
	VMOVDQU32 (AX), Z13
	VMOVDQA32 Z31, K2, Z13
	VMOVDQU32 Z13, (AX)
	ADDQ      $64, AX
	DECQ      DX
	JNZ       rowright
	JMP       refill

idle:
	// No candidate left: lane CX and the other stopped lanes go free.
	BTSQ CX, AX
	NOTQ AX
	ANDQ AX, lanes_act(DI)
	JMP  top

ret:
	MOVQ      R12, lanes_t(DI)
	MOVQ      R10, lanes_prev(DI)
	MOVQ      R11, lanes_cur(DI)
	KMOVW     K6, AX
	MOVQ      AX, ret+32(FP)
	VZEROUPPER
	RET

// func lbLanes(x *[Lanes]*float32, lower, upper *float32, n int, limit float64, prefix *float64) uint64
//
// EnvelopePrefixEarlyAbandon (internal/vector) with one candidate per
// float64 lane of a ZMM register. Column j of the candidates is gathered
// and widened; its term max(x-hi, lo-x, 0)² is computed in float64 (the
// subtractions exact as the scalar ones, the max picking the scalar
// branch's difference, or 0, since lo ≤ hi), added to the lanes' sums,
// and the sums are stored at prefix + 64·j. Every 8
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
