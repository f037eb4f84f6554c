// Package paa implements the Piecewise Aggregate Approximation (PAA)
// representation (Keogh et al., KAIS 2001): a series of length n is divided
// into w equal-length segments, and each segment is summarized by the mean
// of its points. PAA is the intermediate representation between raw series
// and their iSAX summaries (Figure 1 of the paper).
//
// The package also computes per-segment minima/maxima, which the DTW lower
// bound needs to summarize the LB_Keogh envelope conservatively (the iSAX
// regions bound a segment's *mean*, so the envelope must be reduced with
// max/min rather than mean to remain a lower bound).
package paa

// Transform writes the w-segment PAA of s into dst and returns dst.
// If dst is nil or too short a new slice is allocated. len(s) must be a
// positive multiple of w; Split handles the general case at API boundaries.
func Transform(s []float32, w int, dst []float64) []float64 {
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	seg := len(s) / w
	inv := 1.0 / float64(seg)
	for i := 0; i < w; i++ {
		var sum float64
		part := s[i*seg : (i+1)*seg]
		for _, v := range part {
			sum += float64(v)
		}
		dst[i] = sum * inv
	}
	return dst
}

// SegmentMax writes the per-segment maximum of s into dst and returns dst.
func SegmentMax(s []float32, w int, dst []float64) []float64 {
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	seg := len(s) / w
	for i := 0; i < w; i++ {
		part := s[i*seg : (i+1)*seg]
		m := part[0]
		for _, v := range part[1:] {
			if v > m {
				m = v
			}
		}
		dst[i] = float64(m)
	}
	return dst
}

// SegmentMin writes the per-segment minimum of s into dst and returns dst.
func SegmentMin(s []float32, w int, dst []float64) []float64 {
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	seg := len(s) / w
	for i := 0; i < w; i++ {
		part := s[i*seg : (i+1)*seg]
		m := part[0]
		for _, v := range part[1:] {
			if v < m {
				m = v
			}
		}
		dst[i] = float64(m)
	}
	return dst
}
