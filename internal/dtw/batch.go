package dtw

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/vector"
)

// Lanes is how many candidates a Batch bounds at once: one per float64
// lane of a 512-bit register.
const Lanes = 8

// DPLanes is how many candidates' DPs a Batch runs at once: one per
// float32 lane of a 512-bit register.
const DPLanes = 16

// ringSlack is how many columns the DP kernel's ring holds beyond the
// 2r+2 a row pair reads; the kernel moves its window back to the ring's
// start once it has run through them.
const ringSlack = 64

// Batch is Cascade split into two stages, so that Lanes candidates of one
// query take their LB_Keogh bounds together and DPLanes run their DPs
// side by side. Add holds a candidate in the pending stage; Bound takes
// the LB_Keogh prefix sums of every pending candidate against one limit
// and queues the candidates it did not rule out, in the order Add took
// them; Run and Flush run the queued DPs in DPLanes lanes.
//
// The lanes run the DP in float32, and a float32 cell is no exact cell:
// floor32 turns it into a lower bound of the exact one. A lane abandons
// once that bound of its row minimum plus its LB_Keogh suffix reaches the
// widened limit, which Cascade's float64 DP, at the same limit, would
// also reach by the end; a lane whose DP finishes with a bound below the
// widened limit runs its DP again in float64 (Distance, bitwise
// Cascade's), and is a result when that distance is below the limit. So
// the results are exactly the candidates Cascade finds below the limit,
// with Cascade's distances.
//
// The lanes refill: a lane whose DP abandons or finishes takes the next
// queued candidate at its next row pair, so a DP costs the rows it needs,
// not the rows of the longest DP beside it. Lanes stay in flight across
// calls. Run returns once a lane finishes below its limit, with the
// results of that row pair, or once a lane is free and the queue is
// empty; Flush also runs the lanes whose queue is empty to their end.
// Either way the caller offers the results and calls again, at the bound
// as it then stands, until a call returns none: then the queue is empty
// and the next Add may follow.
//
// With AVX-512 F both stages run in assembly, one candidate per lane, each
// lane doing the float32 DP's operations in its order. The DP cells are
// held in band coordinates (cell (i, j) at k = j − i + r), so every
// lane's neighbours are the same 64-byte lines whatever row it is at, and
// each candidate's points are written into a shared column ring at the
// step at which it entered its lane. Without AVX-512 F, Bound takes the
// candidates lane by lane through vector.EnvelopePrefixEarlyAbandon and
// each lane runs the float32 DP a row pair at a time (pair32), in the same
// schedule. Either way the queue gets exactly the candidates Cascade would
// run at Bound's limit and both arms stop every lane at the same row
// pair. A Batch is one worker's: it is not safe for concurrent use. The
// zero value is ready.
type Batch struct {
	lanes
	np int // candidates in the pending stage

	// room holds, with AVX-512 F, the column ring, the two DP rows, the
	// query points of the next row pair and each lane's LB_Keogh suffix
	// sums; held[l] is the candidate of lane l.
	room []uint64
	held [DPLanes][]float32

	fb [DPLanes]laneDP // without AVX-512 F: each lane's DP

	out   [DPLanes]float64
	outID [DPLanes]int32
}

// lanes is what the DP kernel reads and writes; the assembly reaches its
// fields through go_asm.h.
type lanes struct {
	// The pending stage: the candidates, their ids, their LB_Keogh prefix
	// sums (one slab, laid out by the arm: see Bound), and the slots
	// whose bound passed and that no lane has taken yet.
	px    [Lanes][]float32
	pid   [Lanes]int32
	slab  []float64
	queue uint64

	// The geometry, fixed while a lane is in flight: the query's length,
	// the band radius, each lane's suffix sums (one per abandon test of a
	// DP, (n-1)/2, padded to stride, a multiple of Lanes), the ring's size
	// in columns and floor32's factor for n. sufIdx[l] is lane l's suffix
	// sums' offset in 4-byte units, hiOff[u] the byte offset of prefix
	// column 1+r+2u.
	n, r, stride, size int
	kappa              float64
	sufIdx             [DPLanes]int32
	hiOff              [Lanes]int64

	// The lanes: the step of the next row pair, the lanes in flight, the
	// lanes that took a candidate during the last call and the pending
	// slot each took last; each lane's entry step, candidate address and
	// id.
	t       int
	act     uint64
	entered uint64
	took    [DPLanes]uint8
	start   [DPLanes]int32
	x       [DPLanes]uintptr
	id      [DPLanes]int32

	// Addresses in room: the ring (column p of every lane at ring+64·p),
	// the previous and current rows (2r+3 lines, cell k at line k+1, +Inf
	// guards at lines 0 and 2r+2), the query points of each lane's next
	// row pair (two lines) and the suffix sums.
	ring, prev, cur, qrow, suf uintptr
}

// laneDP is one lane's DP without AVX-512 F: its candidate's LB_Keogh
// prefix sums, its two float32 DP rows and its next row.
type laneDP struct {
	pre       []float64
	prev, cur []uint32
	i         int
}

// Add holds x, with id, in the pending stage and reports whether the stage
// is now full; then Bound, and Run until it returns no result, must follow
// before the next Add. x must stay unchanged until Flush has run it.
func (b *Batch) Add(x []float32, id int32) bool {
	b.px[b.np], b.pid[b.np] = x, id
	b.np++
	return b.np == Lanes
}

// Bound takes the LB_Keogh prefix sums of every pending candidate under
// q's envelope (lower ≤ upper pointwise) against limit, as Cascade does,
// queues the candidates whose bound stays below it and empties the
// pending stage. It returns how many it queued. The candidates must have
// the envelope's length. The queue must be empty.
func (b *Batch) Bound(lower, upper []float32, limit float64) int {
	if b.queue != 0 {
		panic("dtw: Bound before Run has emptied the queue")
	}
	np := b.np
	if np == 0 {
		return 0
	}
	b.np = 0
	n := len(lower)
	if len(b.slab) < Lanes*n {
		b.slab = make([]float64, Lanes*n)
	}
	limit *= slack
	if useAVX512 && n > 0 {
		// The kernel runs all Lanes lanes; the empty ones repeat lane 0
		// and their verdicts are dropped. Lane l's column j goes to
		// slab[j·Lanes+l], so a column of every lane is one 64-byte line.
		var xs [Lanes]*float32
		for l := range xs {
			xs[l] = &b.px[0][0]
			if l < np {
				xs[l] = &b.px[l][0]
			}
		}
		b.queue = lbLanes(&xs, &lower[0], &upper[0], n, limit, &b.slab[0]) & (1<<np - 1)
	} else {
		// Lane l's column j goes to slab[l·n+j].
		for l, x := range b.px[:np] {
			if vector.EnvelopePrefixEarlyAbandon(x, lower, upper, b.slab[l*n:(l+1)*n], limit) < limit {
				b.queue |= 1 << l
			}
		}
	}
	return bits.OnesCount64(b.queue)
}

// Run runs the lanes on the queued candidates against q (band radius r,
// 0 <= r < len(q)) and limit until a lane finishes below limit or a lane
// is free with the queue empty. It returns the results below limit of the
// row pair it stopped at, in lane order, and their candidates' ids, valid
// until the next call; none once the queue is empty. Each result is
// Cascade's, bit for bit.
func (b *Batch) Run(q []float32, r int, limit float64) ([]float64, []int32) {
	return b.run(q, r, limit, false)
}

// Flush is Run that also runs the lanes with the queue empty: it returns
// none once every lane has stopped.
func (b *Batch) Flush(q []float32, r int, limit float64) ([]float64, []int32) {
	return b.run(q, r, limit, true)
}

func (b *Batch) run(q []float32, r int, limit float64, drain bool) ([]float64, []int32) {
	n := len(q)
	if n == 0 { // every queued candidate is empty: its DTW is 0
		k := 0
		for queue := b.queue; queue != 0 && 0 < limit; queue &= queue - 1 {
			b.out[k], b.outID[k] = 0, b.pid[bits.TrailingZeros64(queue)]
			k++
		}
		b.queue = 0
		return b.out[:k], b.outID[:k]
	}
	// r outside [0, n) is a caller's bug; the clamp keeps the kernel's
	// writes inside room.
	b.layout(n, min(max(r, 0), n-1))
	k := 0
	for k == 0 {
		var rep uint64
		if useAVX512 {
			rep = bandLanes(&b.lanes, &q[0], limit*slack, drain)
			for e := b.entered; e != 0; e &= e - 1 {
				l := bits.TrailingZeros64(e)
				b.held[l] = b.px[b.took[l]]
			}
		} else {
			rep = b.runLanes(q, limit*slack, drain)
		}
		if rep == 0 {
			break
		}
		// The reported lanes' float32 distances bound theirs from below;
		// each runs again in float64, and the next call goes on when
		// none is below limit.
		for ; rep != 0; rep &= rep - 1 {
			l := bits.TrailingZeros64(rep)
			if d := Distance(q, b.held[l], b.r, math.Inf(1)); d < limit {
				b.out[k], b.outID[k] = d, b.id[l]
				k++
			}
		}
	}
	if b.act == 0 && b.queue == 0 {
		clear(b.px[:]) // drop the references to the candidates
		clear(b.held[:])
	}
	return b.out[:k], b.outID[:k]
}

// layout sizes the lanes' state for queries of n points under band radius
// r. It must not change while a lane is in flight.
func (b *Batch) layout(n, r int) {
	if n == b.n && r == b.r {
		return
	}
	if b.act != 0 {
		panic("dtw: a query changed shape with DPs in flight")
	}
	b.n, b.r = n, r
	b.stride = ((n-1)/2 + Lanes - 1) / Lanes * Lanes
	b.size = 2*r + 2 + ringSlack
	b.kappa = kappa(n)
	b.t = r // a row pair reads the ring from column t-r on
	for l := range b.sufIdx {
		b.sufIdx[l] = int32(2 * l * b.stride)
	}
	for u := range b.hiOff {
		b.hiOff[u] = int64(64 * (1 + r + 2*u))
	}
	if !useAVX512 {
		for l := range b.fb {
			f := &b.fb[l]
			rows := make([]uint32, 2*(n+2))
			f.prev, f.cur, f.pre = rows[:n+2], rows[n+2:], make([]float64, n)
		}
		return
	}
	// The room in 64-byte lines of 8 words: the ring, two rows, the query
	// points, the suffix sums (two lines per pair of every lane); one
	// more line to align it to 64 bytes.
	row := 2*r + 3
	lines := b.size + 2*row + 2 + 2*b.stride
	if len(b.room) < 8*(lines+1) {
		b.room = make([]uint64, 8*(lines+1))
	}
	o := int(-uintptr(unsafe.Pointer(&b.room[0]))&63) / 8
	at := func(line int) uintptr { return uintptr(unsafe.Pointer(&b.room[o+8*line])) }
	prev, cur := b.size, b.size+row
	b.ring, b.prev, b.cur = at(0), at(prev), at(cur)
	b.qrow, b.suf = at(cur+row), at(cur+row+2)
	for _, guard := range []int{prev, prev + row - 1, cur, cur + row - 1} {
		for w := range 8 {
			b.room[o+8*guard+w] = uint64(inf32)<<32 | uint64(inf32)
		}
	}
}

// runLanes is bandLanes without AVX-512 F: each lane runs the float32 DP
// a row pair at a time, in bandLanes' schedule (see refill).
func (b *Batch) runLanes(q []float32, slacked float64, drain bool) uint64 {
	const all = 1<<DPLanes - 1
	n, r := b.n, b.r
	b.refill(all &^ b.act)
	for b.act != 0 && (drain || b.act == all) {
		var stop, rep uint64
		for a := b.act; a != 0; a &= a - 1 {
			l := bits.TrailingZeros64(a)
			f, x := &b.fb[l], b.held[l]
			var d uint32
			switch {
			case f.i == n-1: // n is odd: the last row alone
				d = lastRow32(q, x, r, f.prev)
			case f.i+2 == n: // n is even: the last row pair
				pair32(q, x, r, f.i, f.prev, f.cur)
				d = f.cur[n]
			default:
				rowMin := pair32(q, x, r, f.i, f.prev, f.cur)
				f.prev, f.cur = f.cur, f.prev
				if floor32(rowMin, b.kappa)+(f.pre[n-1]-f.pre[min(f.i+1+r, n-1)]) >= slacked {
					stop |= 1 << l
				}
				f.i += 2
				continue
			}
			stop |= 1 << l
			if floor32(d, b.kappa) < slacked {
				rep |= 1 << l
			}
		}
		if rep != 0 { // the stopped lanes refill at the next call
			b.act &^= stop
			return rep
		}
		b.refill(stop)
	}
	return 0
}

// refill hands the queued candidates, in queue order, to the lanes in
// stop, in lane order, each entering at row 0; the lanes left over stop.
func (b *Batch) refill(stop uint64) {
	n := b.n
	for ; stop != 0; stop &= stop - 1 {
		if b.queue == 0 {
			b.act &^= stop
			return
		}
		l, src := bits.TrailingZeros64(stop), bits.TrailingZeros64(b.queue)
		b.queue &= b.queue - 1
		b.act |= 1 << l
		b.id[l], b.held[l] = b.pid[src], b.px[src]
		f := &b.fb[l]
		f.i = 0
		copy(f.pre, b.slab[src*n:(src+1)*n])
		startRow32(f.prev, b.r)
	}
}

// inf32 is the bit pattern of float32 +Inf, the guard cell of the lanes'
// rows; least32 is that of 2^-80, the least cell floor32 reads.
const (
	inf32   uint32 = 0x7F80_0000
	least32 uint32 = 0x1780_0000
)

// kappa returns floor32's factor for series of n points, 1 − (2n+4)·2⁻²⁴
// − 2n·2⁻⁷⁰ − 2⁻⁵⁰ (see floor32), with no FMA on any GOARCH.
func kappa(n int) float64 {
	return 1 - (float64(float64(2*n+4)*0x1p-24) + float64(float64(2*n)*0x1p-70) + 0x1p-50)
}

// floor32 returns a lower bound of the exact cell (the DP of the real
// numbers) whose float32 DP cell has bit pattern c, given kappa(n): c·κ
// when 2⁻⁸⁰ ≤ c < +Inf, else 0.
//
// The proof. Let u = 2⁻²⁴ and Ω the largest float32. A float32 cell is
// fl(m + fl(fl(a−x)²)), m the least of its neighbours; every term is
// non-negative, and rounding to nearest and min are monotone. A finite
// rounded sum or difference is within a factor (1+u) of the exact one
// (exact when subnormal); a finite rounded square is within (1+u), plus
// at most 2⁻¹⁵⁰ when it underflows. So a finite cost is at most (1+u)²
// times its exact value plus 2⁻¹⁵⁰, and each cell's addition multiplies
// by at most (1+u) more. By induction over the anti-diagonals, along the
// exact DP's best path to a cell (p ≤ 2n−1 cells), min(c, Ω) ≤ ρ(n)·(E +
// 2n·2⁻¹⁵⁰), with E the exact cell and ρ(n) = (1+u)^(2n+4): a cell that
// is +Inf overflowed, so its exact sum is above Ω/ρ already. For a
// finite row minimum the same holds against the exact row minimum, and
// so E ≥ c/ρ − 2n·2⁻¹⁵⁰. Since 1/ρ ≥ 1 − (2n+4)u, and 2n·2⁻¹⁵⁰ ≤
// c·2n·2⁻⁷⁰ for c ≥ 2⁻⁸⁰, E ≥ c·(1 − (2n+4)u − 2n·2⁻⁷⁰); the last 2⁻⁵⁰ of
// κ covers the rounding of κ itself. Below 2⁻⁸⁰ and at +Inf the bound is
// 0, which holds for every cell: a lane never abandons on such a row
// minimum, and a lane finishing with such a distance always runs again
// in float64. The product, and its sum with a float64 suffix, round a
// few ulps, as Cascade's own bounds do; slack covers them.
func floor32(c uint32, kappa float64) float64 {
	if c-least32 >= inf32-least32 {
		return 0
	}
	return float64(float64(math.Float32frombits(c)) * kappa)
}

// cell32 is cell in float32: the conversions round the square and the
// sum to float32, so no GOARCH fuses them into an FMA or keeps them wider.
func cell32(up, diag, left uint32, d float32) uint32 {
	return math.Float32bits(float32(math.Float32frombits(min(up, diag, left)) + float32(d*d)))
}

// startRow32 is startRow in float32 cells.
func startRow32(prev []uint32, r int) {
	prev[0] = 0
	for j := 1; j <= min(r, len(prev)-3)+1; j++ {
		prev[j] = inf32
	}
}

// pair32 is pair in float32 cells: the lanes' DP.
func pair32(a, b []float32, r, i int, prev, cur []uint32) uint32 {
	n := len(a)
	lo, hi := max(i+1-r, 0), min(i+1+r, n-1)
	a1, a2 := a[i], a[i+1]
	left1, left2, rowMin := inf32, inf32, inf32
	j := max(i-r, 0)
	for ; j < lo; j++ { // row i alone
		left1 = cell32(prev[j+1], prev[j], left1, a1-b[j])
	}
	for ; j <= min(i+r, n-1); j++ { // both rows
		x := b[j]
		c := cell32(prev[j+1], prev[j], left1, a1-x)
		left2 = cell32(c, left1, left2, a2-x)
		left1 = c
		cur[j+1] = left2
		rowMin = min(rowMin, left2)
	}
	for ; j <= hi; j++ { // row i+1 alone
		left2 = cell32(inf32, left1, left2, a2-b[j])
		cur[j+1] = left2
		rowMin = min(rowMin, left2)
	}
	cur[lo], cur[hi+2] = inf32, inf32
	return rowMin
}

// lastRow32 is lastRow in float32 cells.
func lastRow32(a, b []float32, r int, prev []uint32) uint32 {
	n := len(a)
	ai, left := a[n-1], inf32
	for j := max(n-1-r, 0); j < n; j++ {
		left = cell32(prev[j+1], prev[j], left, ai-b[j])
	}
	return left
}
