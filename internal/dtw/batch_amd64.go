package dtw

import "repro/internal/cpu"

// useAVX512 reports whether the CPU has AVX-512 F and the OS saves the
// opmask and ZMM state. Tests clear it to run the fallback.
var useAVX512 = cpu.AVX512F

// bandLanes runs Cascade's DP for the Lanes candidates at x against q (n
// points, band radius r), lane l bounding its unreached columns with the
// LB_Keogh prefix sums at prefix[l], lane strided as lbLanes writes them.
// Lanes whose bit is clear in lanes are computed but not reported. Each
// reported lane stops at the first tested row whose bound reaches limit,
// which the caller has already widened by slack, and leaves that bound in
// d; the others leave their DTW distance. room holds Lanes·(n + 2·(n+2))
// float64s.
//
//go:noescape
func bandLanes(q *float32, n, r int, x *[Lanes]*float32, prefix *[Lanes]*float64, lanes uint64, limit float64, room *float64, d *[Lanes]float64)

// lbLanes takes the LB_Keogh prefix sums of the Lanes candidates at x (n
// points each, n > 0) under the envelope lower ≤ upper, as
// vector.EnvelopePrefixEarlyAbandon takes one candidate's against limit,
// which the caller has already widened by slack. Lane l's sum over
// columns 0…j goes to prefix[j·Lanes+l]. Every 8 columns the kernel stops
// once every lane's sum reaches limit. It returns a mask of the lanes
// whose sum stayed below limit; each surviving lane's prefix sums are
// bitwise the scalar ones.
//
//go:noescape
func lbLanes(x *[Lanes]*float32, lower, upper *float32, n int, limit float64, prefix *float64) uint64
