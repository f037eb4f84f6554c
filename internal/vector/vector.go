// Package vector provides the low-level floating-point distance kernels
// used throughout the index: squared Euclidean distance, early-abandoning
// variants, and envelope (clamp) distances for DTW lower bounds.
//
// The paper computes these kernels with 256-bit AVX SIMD intrinsics. Here:
//
//   - SquaredEuclideanEarlyAbandon, the kernel of every Euclidean scan and
//     refine, is AVX Go assembly on amd64 CPUs that have AVX (Kernel
//     reports "avx"). The unrolled Go loop it replaces, earlyAbandonGo, is
//     its bitwise reference and its fallback elsewhere ("go"): both add
//     the same terms in the same order, so no answer depends on the CPU;
//   - EnvelopePrefixEarlyAbandon, LB_Keogh with its prefix sums, is the
//     kernel of dtw.Cascade and of the DTW batch's fallback; the batch's
//     AVX-512 pass (internal/dtw) computes it eight candidates at a time,
//     bitwise, and the Go loop is its reference;
//   - the other default kernels are unrolled Go loops with independent
//     accumulators, which keep the floating-point dependency chains short;
//   - the Scalar* kernels are deliberately naive one-element-at-a-time
//     loops, used by the ParIS-SISD ablation (Figure 18) to reproduce the
//     paper's SIMD-vs-SISD comparison.
//
// All kernels operate on squared distances: hot paths never take square
// roots, and callers compare against squared thresholds.
package vector

// SquaredEuclidean returns the squared Euclidean distance between a and b.
// The slices must have the same length; extra elements of the longer slice
// are ignored (callers validate lengths at API boundaries).
func SquaredEuclidean(a, b []float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a = a[:n]
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := float64(a[i] - b[i])
		d1 := float64(a[i+1] - b[i+1])
		d2 := float64(a[i+2] - b[i+2])
		d3 := float64(a[i+3] - b[i+3])
		d4 := float64(a[i+4] - b[i+4])
		d5 := float64(a[i+5] - b[i+5])
		d6 := float64(a[i+6] - b[i+6])
		d7 := float64(a[i+7] - b[i+7])
		s0 += d0*d0 + d4*d4
		s1 += d1*d1 + d5*d5
		s2 += d2*d2 + d6*d6
		s3 += d3*d3 + d7*d7
	}
	for ; i < n; i++ {
		d := float64(a[i] - b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// earlyAbandonGo is the reference SquaredEuclideanEarlyAbandon, and its
// fallback without AVX. Each 16-element block sums its squares in four
// lanes, lane k taking elements k, k+4, k+8 and k+12 in that order; the
// lanes are added ((s0+s1)+s2)+s3 into the running sum, which is checked
// against limit after every block. The fewer than 16 elements left after
// the last block are added one by one.
func earlyAbandonGo(a, b []float32, limit float64) float64 {
	n := min(len(a), len(b))
	a = a[:n]
	b = b[:n]
	var sum float64
	i := 0
	for ; i+16 <= n; i += 16 {
		var s0, s1, s2, s3 float64
		for j := i; j < i+16; j += 4 {
			d0 := float64(a[j] - b[j])
			d1 := float64(a[j+1] - b[j+1])
			d2 := float64(a[j+2] - b[j+2])
			d3 := float64(a[j+3] - b[j+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		sum += s0 + s1 + s2 + s3
		if sum >= limit {
			return sum
		}
	}
	return addTail(a[i:], b[i:], sum)
}

// addTail adds the squared differences of a and b, one at a time, to sum.
func addTail(a, b []float32, sum float64) float64 {
	b = b[:len(a)]
	for i := range a {
		d := float64(a[i] - b[i])
		sum += d * d
	}
	return sum
}

// ScalarSquaredEuclideanEarlyAbandon is the naive SISD early-abandoning
// kernel: it checks the threshold after every element, which is exactly the
// per-element conditional branch the paper's SIMD lower-bound kernels
// eliminate.
func ScalarSquaredEuclideanEarlyAbandon(a, b []float32, limit float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
		if sum >= limit {
			return sum
		}
	}
	return sum
}

// SquaredEnvelopeDistance returns the squared LB_Keogh-style distance of
// series x from the envelope [lower, upper]: points inside the envelope
// contribute zero, points outside contribute their squared excursion.
// Used for DTW lower bounding; same unrolling strategy as the ED kernels.
func SquaredEnvelopeDistance(x, lower, upper []float32) float64 {
	n := len(x)
	if len(lower) < n {
		n = len(lower)
	}
	if len(upper) < n {
		n = len(upper)
	}
	var s0, s1 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += envTerm(x[i], lower[i], upper[i]) + envTerm(x[i+2], lower[i+2], upper[i+2])
		s1 += envTerm(x[i+1], lower[i+1], upper[i+1]) + envTerm(x[i+3], lower[i+3], upper[i+3])
	}
	for ; i < n; i++ {
		s0 += envTerm(x[i], lower[i], upper[i])
	}
	return s0 + s1
}

// SquaredEnvelopeDistanceEarlyAbandon is SquaredEnvelopeDistance with a
// block-wise abandon check against limit.
func SquaredEnvelopeDistanceEarlyAbandon(x, lower, upper []float32, limit float64) float64 {
	n := len(x)
	if len(lower) < n {
		n = len(lower)
	}
	if len(upper) < n {
		n = len(upper)
	}
	var sum float64
	i := 0
	for ; i+8 <= n; i += 8 {
		var s float64
		for j := i; j < i+8; j++ {
			s += envTerm(x[j], lower[j], upper[j])
		}
		sum += s
		if sum >= limit {
			return sum
		}
	}
	for ; i < n; i++ {
		sum += envTerm(x[i], lower[i], upper[i])
	}
	return sum
}

// EnvelopePrefixEarlyAbandon is SquaredEnvelopeDistanceEarlyAbandon over
// the first len(prefix) points that also writes the running sum after
// each point into prefix. Once the sum reaches limit (checked every 8
// points) it returns that partial sum and leaves the rest unwritten.
func EnvelopePrefixEarlyAbandon(x, lower, upper []float32, prefix []float64, limit float64) float64 {
	var sum float64
	for i := range prefix {
		sum += envTerm(x[i], lower[i], upper[i])
		prefix[i] = sum
		if i&7 == 7 && sum >= limit {
			return sum
		}
	}
	return sum
}

// envTerm subtracts in float64, as the DTW DP does: a float32 difference
// can round above the DP's cost of the same point, and the bound then
// exceeds the DTW it bounds.
func envTerm(x, lo, hi float32) float64 {
	if x > hi {
		d := float64(x) - float64(hi)
		return d * d
	}
	if x < lo {
		d := float64(lo) - float64(x)
		return d * d
	}
	return 0
}
