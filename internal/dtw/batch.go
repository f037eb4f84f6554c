package dtw

import (
	"math/bits"

	"repro/internal/vector"
)

// Lanes is how many candidates a Batch measures at once: one per float64
// lane of a 512-bit register.
const Lanes = 8

// Batch is Cascade split into two stages, so that Lanes candidates of one
// query take their LB_Keogh bounds together and Lanes take their DPs
// together. Add holds a candidate in the pending stage; Bound takes the
// LB_Keogh prefix sums of every pending candidate against one limit; Fill
// moves the candidates the bound did not rule out into the DP queue; Run
// runs the queued DPs against one limit. With AVX-512 F both passes run
// side by side in assembly, one candidate per lane, each lane doing
// Cascade's operations in Cascade's order; without it Bound takes the
// candidates lane by lane through vector.EnvelopePrefixEarlyAbandon and
// Run through Cascade's DP. Either way the DP queue gets exactly the
// candidates Cascade would run at Bound's limit, in the order Add took
// them, and a result below Run's limit is bitwise Cascade's. A Batch is one
// worker's: it is not safe for concurrent use. The zero value is ready.
type Batch struct {
	// The pending stage: np candidates with their ids. After Bound, keep
	// has a bit for each lane whose bound passed and that Fill has not
	// moved yet, and their prefix sums are in slabs[pass].
	np   int
	px   [Lanes][]float32
	pid  [Lanes]int32
	keep uint64
	pass int

	// The DP queue: n candidates, their ids, and where their prefix sums
	// are, at[l] = slab·Lanes + lane.
	n  int
	x  [Lanes][]float32
	id [Lanes]int32
	at [Lanes]uint8
	d  [Lanes]float64

	// slabs hold the prefix sums of Lanes bound passes, Lanes·len float64s
	// each: lane l's column j at j·Lanes + l with AVX-512 F (so the
	// kernels read a column of every lane as one 64-byte line), and at
	// l·len + j without. A pass writes slabs[next], and next moves on
	// only after a pass that keeps a lane, so a slab is written again only
	// after Lanes-1 more passes that kept a lane each: by then the DP
	// queue, never full at a pass, has filled and run every candidate
	// pointing into it.
	slabs [Lanes][]float64
	next  int

	room []float64 // the DP kernel's: Lanes·len transposed points, 2 DP rows
}

// Add holds x, with id, in the pending stage and reports whether the stage
// is now full; then Bound, and Fill until it reports false, must follow
// before the next Add. x must stay unchanged until Run has run it.
func (b *Batch) Add(x []float32, id int32) bool {
	b.px[b.np], b.pid[b.np] = x, id
	b.np++
	return b.np == Lanes
}

// Bound takes the LB_Keogh prefix sums of every pending candidate under
// q's envelope (lower ≤ upper pointwise) against limit, as Cascade does,
// and keeps the candidates whose bound stays below it for Fill. The
// candidates must have the envelope's length. It must not be called while
// kept candidates wait for Fill or the DP queue is full.
func (b *Batch) Bound(lower, upper []float32, limit float64) {
	if b.keep != 0 || b.n == Lanes {
		panic("dtw: Bound before Fill has emptied the pending stage")
	}
	if b.np == 0 {
		return
	}
	n := len(lower)
	b.pass = b.next
	if len(b.slabs[b.pass]) < Lanes*n {
		b.slabs[b.pass] = make([]float64, Lanes*n)
	}
	slab := b.slabs[b.pass]
	limit *= slack
	if useAVX512 && n > 0 {
		// The kernel runs all Lanes lanes; the empty ones repeat lane 0
		// and their verdicts are dropped.
		var xs [Lanes]*float32
		for l := range xs {
			xs[l] = &b.px[0][0]
			if l < b.np {
				xs[l] = &b.px[l][0]
			}
		}
		b.keep = lbLanes(&xs, &lower[0], &upper[0], n, limit, &slab[0]) & (1<<b.np - 1)
	} else {
		for l, x := range b.px[:b.np] {
			if vector.EnvelopePrefixEarlyAbandon(x, lower, upper, slab[l*n:(l+1)*n], limit) < limit {
				b.keep |= 1 << l
			}
		}
	}
	if b.keep != 0 {
		b.next = (b.pass + 1) % Lanes
	}
}

// Fill moves the candidates Bound kept into the DP queue, in the order Add
// took them, until the queue is full, and reports whether it is: then Run
// must empty it before the next Fill. Once Fill reports false the pending
// stage is empty.
func (b *Batch) Fill() bool {
	for b.keep != 0 {
		if b.n == Lanes {
			return true
		}
		l := bits.TrailingZeros64(b.keep)
		b.keep &= b.keep - 1
		b.x[b.n], b.id[b.n], b.at[b.n] = b.px[l], b.pid[l], uint8(b.pass*Lanes+l)
		b.n++
	}
	clear(b.px[:b.np]) // drop the references to the candidates
	b.np = 0
	return b.n == Lanes
}

// Run computes the DTW distance between q and each queued candidate, in
// queue order, under a band of radius r (0 <= r < len(q)), and empties the
// queue. A result is Cascade's, bit for bit, when that is below limit, and
// some value >= limit otherwise. It returns the results and the
// candidates' ids, valid until the next Fill.
func (b *Batch) Run(q []float32, r int, limit float64) ([]float64, []int32) {
	d, n := b.d[:b.n], len(q)
	id := b.id[:b.n]
	b.n = 0
	limit *= slack
	switch {
	case len(d) == 0:
	case n == 0:
		clear(d)
	case useAVX512:
		// The kernel runs all Lanes lanes; the empty ones repeat lane 0
		// and their results are dropped.
		var xs [Lanes]*float32
		var ps [Lanes]*float64
		for l := range xs {
			src := l
			if l >= len(d) {
				src = 0
			}
			at := b.at[src]
			xs[l], ps[l] = &b.x[src][0], &b.slabs[at/Lanes][at%Lanes]
		}
		if len(b.room) < Lanes*(n+2*(n+2)) {
			b.room = make([]float64, Lanes*(n+2*(n+2)))
		}
		// r outside [0, n) is a caller's bug; the clamp keeps the
		// kernel's writes inside room.
		r = min(max(r, 0), n-1)
		bandLanes(&q[0], n, r, &xs, &ps, 1<<len(d)-1, limit, &b.room[0], &b.d)
	default:
		s := getScratch(n)
		for l := range d {
			slab, lane := int(b.at[l]/Lanes), int(b.at[l]%Lanes)
			d[l] = s.band(q, b.x[l], r, limit, b.slabs[slab][lane*n:(lane+1)*n])
		}
		scratchPool.Put(s)
	}
	clear(b.x[:]) // drop the references to the candidates
	return d, id
}
