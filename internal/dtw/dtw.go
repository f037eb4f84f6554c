// Package dtw implements constrained Dynamic Time Warping with a
// Sakoe-Chiba band and the LB_Keogh lower-bounding machinery (envelope
// construction and envelope distances) that MESSI uses to answer DTW
// similarity queries without changing the index structure (Figure 19 of
// the paper: "we just have to build the envelope of the LB_Keogh method
// around the query series, and then search the index using this
// envelope").
//
// The kernel takes the UCR Suite's cheap techniques (Rakthanmanon et al.,
// "Searching and Mining Trillions of Time Series Subsequences under DTW",
// KDD 2012): the DP touches only the band, with no data-dependent branch
// per cell, and Cascade measures a candidate by LB_Keogh first, then by
// the DP, which abandons once a row minimum plus the LB_Keogh of the
// columns it has not reached yet reaches the limit. The DP computes two
// rows per pass over the columns, so two left-neighbour chains run side by
// side, and takes its minima over the cells' bit patterns on the integer
// ports; both keep the result bitwise equal to the plain DP's. Batch runs
// Cascade in two stages of eight candidates of one query, one per lane of
// an AVX-512 register: first their LB_Keogh bounds, each lane's prefix
// sums bitwise vector.EnvelopePrefixEarlyAbandon's, then the survivors'
// DPs, each lane bitwise Cascade's.
//
// As everywhere in this repository, distances are SQUARED: Distance returns
// the sum of squared point costs along the optimal warping path, which for
// a zero-width band degenerates to the squared Euclidean distance. Inputs
// must be finite.
package dtw

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/vector"
)

// slack widens every abandon test that compares a lower bound with a
// limit: Cascade abandons at limit·slack, not at limit. A bound sums its
// terms in another order than the DP sums the costs it bounds, and the
// bound of the columns not yet reached is a difference of two such sums,
// so either can round a few ulps above the DTW computed from those costs.
// The rounding of n-term sums stays below 1e-9 of the limit for series of
// up to ~10⁶ points.
const slack = 1 + 1e-9

// scratch is the pooled room one DTW evaluation needs: two DP rows of n+2
// cells (column j at index j+1, a +Inf guard on either side of the band),
// held as IEEE-754 bit patterns, and the n LB_Keogh prefix sums of
// Cascade. Query answering measures tens of thousands of candidates per
// query; per-call allocation would dominate the run with GC work.
type scratch struct {
	rows   []uint64
	prefix []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.prefix) < n {
		s.rows, s.prefix = make([]uint64, 2*n+4), make([]float64, n)
	}
	return s
}

// WindowSize converts a fractional warping window (e.g. 0.1 for the paper's
// 10%) into an absolute band radius for series of the given length. The
// result is clamped to [0, n-1].
func WindowSize(n int, fraction float64) int {
	if fraction < 0 {
		return 0
	}
	r := int(math.Floor(fraction*float64(n) + 0.5))
	if r > n-1 {
		r = n - 1
	}
	if r < 0 {
		r = 0
	}
	return r
}

// CheckWindow validates an absolute band radius for series length n.
func CheckWindow(n, r int) error {
	if r < 0 || r >= n {
		return fmt.Errorf("dtw: band radius %d out of range [0,%d] for series length %d", r, n-1, n)
	}
	return nil
}

// Envelope computes the LB_Keogh envelope of q under a Sakoe-Chiba band of
// radius r: upper[i] = max(q[i-r..i+r]), lower[i] = min(q[i-r..i+r]),
// clamped at the series boundaries. It runs in O(n) using monotonic deques.
func Envelope(q []float32, r int) (upper, lower []float32) {
	n := len(q)
	upper = make([]float32, n)
	lower = make([]float32, n)
	if n == 0 {
		return upper, lower
	}
	// Monotonic deques of indices: maxDeque values decreasing, minDeque
	// values increasing. Window for position i is [i-r, i+r].
	maxDeque := make([]int, 0, 2*r+1)
	minDeque := make([]int, 0, 2*r+1)
	push := func(j int) {
		for len(maxDeque) > 0 && q[maxDeque[len(maxDeque)-1]] <= q[j] {
			maxDeque = maxDeque[:len(maxDeque)-1]
		}
		maxDeque = append(maxDeque, j)
		for len(minDeque) > 0 && q[minDeque[len(minDeque)-1]] >= q[j] {
			minDeque = minDeque[:len(minDeque)-1]
		}
		minDeque = append(minDeque, j)
	}
	// Pre-fill the first window [0, r].
	for j := 0; j <= r && j < n; j++ {
		push(j)
	}
	for i := 0; i < n; i++ {
		if i+r < n && i > 0 {
			push(i + r)
		}
		// Evict indices that fell out of [i-r, i+r].
		for maxDeque[0] < i-r {
			maxDeque = maxDeque[1:]
		}
		for minDeque[0] < i-r {
			minDeque = minDeque[1:]
		}
		upper[i] = q[maxDeque[0]]
		lower[i] = q[minDeque[0]]
	}
	return upper, lower
}

// LBKeogh returns the squared LB_Keogh lower bound of cDTW(q, x) given q's
// envelope, abandoning once the running sum reaches limit. Pass
// math.Inf(1) as limit for the exact value.
func LBKeogh(x, lower, upper []float32, limit float64) float64 {
	return vector.SquaredEnvelopeDistanceEarlyAbandon(x, lower, upper, limit)
}

// Cascade measures candidate x against query q under a band of radius r,
// given q's envelope: LB_Keogh first, then, unless the bound reaches
// limit, the DTW distance. ran reports whether the DP ran. The DP abandons
// after an odd row i once its row minimum plus the LB_Keogh terms of the
// columns beyond i+r reaches limit (the UCR Suite's cumulative bound): a
// path leaving row i has not reached those columns yet, and each costs at
// least its term. The result is Distance's, bit for bit, when that is
// below limit, and some value >= limit otherwise.
func Cascade(q, x, lower, upper []float32, r int, limit float64) (d float64, ran bool) {
	n := len(q)
	s := getScratch(n)
	defer scratchPool.Put(s)
	prefix := s.prefix[:n]
	limit *= slack
	if lb := vector.EnvelopePrefixEarlyAbandon(x, lower, upper, prefix, limit); lb >= limit {
		return lb, false
	}
	return s.band(q, x, r, limit, prefix), true
}

// Distance computes the squared constrained DTW distance between a and b
// under a Sakoe-Chiba band of radius r, abandoning (returning a value >=
// limit) once the minimum of an odd DP row reaches limit. The slices must
// have equal length and finite values; r must satisfy 0 <= r < len(a).
func Distance(a, b []float32, r int, limit float64) float64 {
	s := getScratch(len(a))
	defer scratchPool.Put(s)
	return s.band(a, b, r, limit, nil)
}

// inf is the bit pattern of +Inf, the guard cell of the DP rows.
const inf uint64 = 0x7FF0_0000_0000_0000

// cell is one DP cell: the least of its three neighbours plus its cost.
// The neighbours are the bit patterns of +0, of positive finite sums of
// squares or of +Inf, which order as unsigned integers exactly as they do
// as floats, so the min runs on the integer ports (CMP/CMOV), beside the
// floating-point work of the cost.
func cell(up, diag, left uint64, d float64) uint64 {
	return math.Float64bits(math.Float64frombits(min(up, diag, left)) + d*d)
}

// band runs the DP over the band alone. Row i covers columns
// [max(i-r,0), min(i+r,n-1)], and the +Inf cells on either side of it
// stand for every cell outside, so a cell needs no test: it is the min of
// its three neighbours plus its cost, with the left neighbour carried in
// a register. Row -1 is a 0 on cell (0,0)'s diagonal and +Inf elsewhere.
// Every cell inside the band is reachable, and the guards' +Inf plus a
// cost stays +Inf.
//
// One pass over the columns computes two rows: cell (i+1, j) takes its
// up and diagonal neighbours from row i's cells j and j-1, still in
// registers, so the two rows' left-neighbour chains run side by side.
// Row i's band starts and ends at most one column before row i+1's: that
// column, when there is one, runs for one row alone. When n is odd, the
// last row runs alone.
//
// The inputs must be finite (the API layers reject NaN and ±Inf): then
// every cell is +0, a positive sum of squares or +Inf, never NaN or -0,
// so the integer min picks the value a compare-and-branch min would and
// the result is bitwise the reference DP's. After each pair of rows, row
// i+1's minimum is compared with limit; given Cascade's LB_Keogh prefix
// sums, the bound of the columns beyond row i+1's band, their total minus
// the prefix up to it, is added first.
func (s *scratch) band(a, b []float32, r int, limit float64, prefix []float64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	prev, cur := s.rows[:n+2], s.rows[n+2:2*n+4]
	prev[0] = 0
	for j := 1; j <= min(r, n-1)+1; j++ {
		prev[j] = inf
	}
	i := 0
	for ; i+1 < n; i += 2 {
		lo, hi := max(i+1-r, 0), min(i+1+r, n-1)
		a1, a2 := float64(a[i]), float64(a[i+1])
		left1, left2, rowMin := inf, inf, inf
		j := max(i-r, 0)
		for ; j < lo; j++ { // row i alone
			left1 = cell(prev[j+1], prev[j], left1, a1-float64(b[j]))
		}
		for ; j <= min(i+r, n-1); j++ { // both rows
			x := float64(b[j])
			c := cell(prev[j+1], prev[j], left1, a1-x)
			left2 = cell(c, left1, left2, a2-x)
			left1 = c
			cur[j+1] = left2
			rowMin = min(rowMin, left2)
		}
		for ; j <= hi; j++ { // row i+1 alone
			left2 = cell(inf, left1, left2, a2-float64(b[j]))
			cur[j+1] = left2
			rowMin = min(rowMin, left2)
		}
		cur[lo], cur[hi+2] = inf, inf
		bound := math.Float64frombits(rowMin)
		if prefix != nil {
			bound += prefix[n-1] - prefix[hi]
		}
		if bound >= limit {
			return bound
		}
		prev, cur = cur, prev
	}
	if i == n-1 { // n is odd: the last row alone
		ai, left := float64(a[i]), inf
		for j := max(i-r, 0); j < n; j++ {
			left = cell(prev[j+1], prev[j], left, ai-float64(b[j]))
		}
		return math.Float64frombits(left)
	}
	return math.Float64frombits(prev[n])
}
