package dtw

import "repro/internal/vector"

// Lanes is how many candidates a Batch measures at once: one per float64
// lane of a 512-bit register.
const Lanes = 8

// Batch is Cascade split in two, so that the DPs of up to Lanes
// candidates of one query run together: Add takes a candidate's LB_Keogh
// bound, as Cascade does, and queues it unless the bound rules it out;
// Run runs the queued candidates' DPs against one limit. With AVX-512 F the
// DPs run side by side in assembly, one candidate per lane, each lane
// doing Cascade's band operations in Cascade's order and abandoning on its
// own bound; without it Run takes them lane by lane through Cascade's DP.
// Either way a result below the limit is bitwise Cascade's. A Batch is
// one worker's: it is not safe for concurrent use. The zero value is
// ready.
type Batch struct {
	n      int // queued candidates
	x      [Lanes][]float32
	prefix [Lanes][]float64 // their LB_Keogh prefix sums, in pre
	d      [Lanes]float64

	pre  []float64 // Lanes·len prefix sums
	room []float64 // the kernel's: Lanes·len transposed points, 2 DP rows
}

// Len returns how many candidates are queued.
func (b *Batch) Len() int { return b.n }

// Add measures x's LB_Keogh bound under q's envelope against limit and
// queues x unless the bound reaches it; it reports whether x was queued.
// x must stay unchanged until Run, and the batch must not be full.
func (b *Batch) Add(x, lower, upper []float32, limit float64) bool {
	n := len(x)
	if len(b.pre) < Lanes*n {
		b.pre = make([]float64, Lanes*n)
	}
	prefix := b.pre[b.n*n : (b.n+1)*n]
	limit *= slack
	if vector.EnvelopePrefixEarlyAbandon(x, lower, upper, prefix, limit) >= limit {
		return false
	}
	b.x[b.n], b.prefix[b.n] = x, prefix
	b.n++
	return true
}

// Run computes the DTW distance between q and each queued candidate, in
// the order Add queued them, under a band of radius r (0 <= r < len(q)),
// and empties the batch. A result is Cascade's, bit for bit, when that is below limit, and
// some value >= limit otherwise. The slice is valid until the next Run.
func (b *Batch) Run(q []float32, r int, limit float64) []float64 {
	d, n := b.d[:b.n], len(q)
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
			xs[l], ps[l] = &b.x[src][0], &b.prefix[src][0]
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
			d[l] = s.band(q, b.x[l], r, limit, b.prefix[l])
		}
		scratchPool.Put(s)
	}
	clear(b.x[:]) // drop the references to the candidates
	return d
}
