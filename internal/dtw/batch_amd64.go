package dtw

import "repro/internal/cpu"

// useAVX512 reports whether the CPU has AVX-512 F and the OS saves the
// opmask and ZMM state. Tests clear it to run the fallback.
var useAVX512 = cpu.AVX512F

// bandLanes runs the lanes of s on its queued candidates against q, as
// Batch.Run and Batch.Flush (drain) describe: each lane does the float32
// DP (pair32) a row pair at a time, stops once floor32 of its row minimum
// plus its LB_Keogh suffix reaches slacked (the limit widened by slack)
// or its last row is done, and a stopped lane takes the next queued
// candidate. After a pair at which a lane finishes with floor32 of its
// distance below slacked, it returns a mask of those lanes, whose ids and
// candidates are still in s; the lanes stopped at that pair are free, to
// take candidates at the next call. s's geometry and room must have been
// laid out for q (Batch.layout).
//
//go:noescape
func bandLanes(s *lanes, q *float32, slacked float64, drain bool) uint64

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
