package dtw

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/vector"
)

// Lanes is how many candidates a Batch measures at once: one per float64
// lane of a 512-bit register.
const Lanes = 8

// ringSlack is how many columns the DP kernel's ring holds beyond the
// 2r+2 a row pair reads; the kernel moves its window back to the ring's
// start once it has run through them.
const ringSlack = 64

// Batch is Cascade split into two stages, so that Lanes candidates of one
// query take their LB_Keogh bounds together and Lanes run their DPs side
// by side. Add holds a candidate in the pending stage; Bound takes the
// LB_Keogh prefix sums of every pending candidate against one limit and
// queues the candidates it did not rule out, in the order Add took them;
// Run and Flush run the queued DPs in Lanes lanes.
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
// lane doing Cascade's operations in Cascade's order. The DP cells are held
// in band coordinates (cell (i, j) at k = j − i + r), so every lane's
// neighbours are the same 64-byte lines whatever row it is at, and each
// candidate's points are written into a shared column ring at the step at
// which it entered its lane. Without AVX-512 F, Bound takes the candidates
// lane by lane through vector.EnvelopePrefixEarlyAbandon and each lane
// runs Cascade's DP a row pair at a time, in the same schedule. Either way
// the queue gets exactly the candidates Cascade would run at Bound's
// limit, every lane stops at the row pair where Cascade, at the limits it
// was run against, would, and a result below the limit is bitwise
// Cascade's. A Batch is one worker's: it is not safe for concurrent use.
// The zero value is ready.
type Batch struct {
	lanes
	np int // candidates in the pending stage

	// room holds, with AVX-512 F, the column ring, the two DP rows, the
	// query points of the next row pair and each lane's LB_Keogh suffix
	// sums; held keeps every candidate in flight referenced.
	room []float64
	held [Lanes][]float32

	fb [Lanes]laneDP // without AVX-512 F: each lane's DP

	out   [Lanes]float64
	outID [Lanes]int32
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
	// DP, (n-1)/2, padded to stride, a multiple of Lanes) and the ring's
	// size in columns. sufOff[l] is lane l's suffix sums' byte offset,
	// hiOff[u] the byte offset of prefix column 1+r+2u.
	n, r, stride, size int
	sufOff, hiOff      [Lanes]int64

	// The lanes: the step of the next row pair, the lanes in flight, the
	// lanes that took a candidate during the last call and the pending
	// slot each took last; each lane's entry step, candidate address and
	// id; and, for the lanes the last call reported, their results and
	// ids.
	t       int
	act     uint64
	entered uint64
	took    [Lanes]uint8
	start   [Lanes]int64
	x       [Lanes]uintptr
	id      [Lanes]int32
	rid     [Lanes]int32
	d       [Lanes]float64

	// Addresses in room: the ring (column p of every lane at ring+64·p),
	// the previous and current rows (2r+3 lines, cell k at line k+1, +Inf
	// guards at lines 0 and 2r+2), the query points of each lane's next
	// row pair (two lines) and the suffix sums.
	ring, prev, cur, qrow, suf uintptr
}

// laneDP is one lane's DP without AVX-512 F: its candidate, the candidate's
// LB_Keogh prefix sums, its two DP rows and its next row.
type laneDP struct {
	x         []float32
	pre       []float64
	prev, cur []uint64
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
	var rep uint64
	if useAVX512 {
		rep = bandLanes(&b.lanes, &q[0], limit, limit*slack, drain)
		for e := b.entered; e != 0; e &= e - 1 {
			l := bits.TrailingZeros64(e)
			b.held[l] = b.px[b.took[l]]
		}
	} else {
		rep = b.runLanes(q, limit, limit*slack, drain)
	}
	k := 0
	for ; rep != 0; rep &= rep - 1 {
		l := bits.TrailingZeros64(rep)
		b.out[k], b.outID[k] = b.d[l], b.rid[l]
		k++
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
	b.t = r // a row pair reads the ring from column t-r on
	for l := range b.sufOff {
		b.sufOff[l] = int64(8 * l * b.stride)
		b.hiOff[l] = int64(64 * (1 + r + 2*l))
	}
	if !useAVX512 {
		for l := range b.fb {
			f := &b.fb[l]
			rows := make([]uint64, 2*(n+2))
			f.prev, f.cur, f.pre = rows[:n+2], rows[n+2:], make([]float64, n)
		}
		return
	}
	// The room in 64-byte lines: the ring, two rows, the query points,
	// the suffix sums; one more line to align it to 64 bytes.
	row := 2*r + 3
	lines := b.size + 2*row + 2 + b.stride
	if len(b.room) < Lanes*(lines+1) {
		b.room = make([]float64, Lanes*(lines+1))
	}
	o := int(-uintptr(unsafe.Pointer(&b.room[0]))&63) / 8
	at := func(line int) uintptr { return uintptr(unsafe.Pointer(&b.room[o+Lanes*line])) }
	prev, cur := b.size, b.size+row
	b.ring, b.prev, b.cur = at(0), at(prev), at(cur)
	b.qrow, b.suf = at(cur+row), at(cur+row+2)
	for _, guard := range []int{prev, prev + row - 1, cur, cur + row - 1} {
		for l := range Lanes {
			b.room[o+Lanes*guard+l] = math.Float64frombits(inf)
		}
	}
}

// runLanes is bandLanes without AVX-512 F: each lane runs Cascade's DP a
// row pair at a time, in bandLanes' schedule (see refill).
func (b *Batch) runLanes(q []float32, limit, slacked float64, drain bool) uint64 {
	n, r := b.n, b.r
	b.refill((1<<Lanes - 1) &^ b.act)
	for b.act != 0 && (drain || b.act == 1<<Lanes-1) {
		var stop, rep uint64
		for a := b.act; a != 0; a &= a - 1 {
			l := bits.TrailingZeros64(a)
			f := &b.fb[l]
			var d uint64
			switch {
			case f.i == n-1: // n is odd: the last row alone
				d = lastRow(q, f.x, r, f.prev)
			case f.i+2 == n: // n is even: the last row pair
				pair(q, f.x, r, f.i, f.prev, f.cur)
				d = f.cur[n]
			default:
				rowMin := pair(q, f.x, r, f.i, f.prev, f.cur)
				f.prev, f.cur = f.cur, f.prev
				bound := math.Float64frombits(rowMin)
				bound += f.pre[n-1] - f.pre[min(f.i+1+r, n-1)]
				if bound >= slacked {
					stop |= 1 << l
				}
				f.i += 2
				continue
			}
			stop |= 1 << l
			if dl := math.Float64frombits(d); dl < limit {
				rep |= 1 << l
				b.d[l], b.rid[l] = dl, b.id[l]
			}
		}
		b.refill(stop)
		if rep != 0 {
			return rep
		}
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
		b.id[l] = b.pid[src]
		f := &b.fb[l]
		f.x, f.i = b.px[src], 0
		copy(f.pre, b.slab[src*n:(src+1)*n])
		startRow(f.prev, b.r)
	}
}
