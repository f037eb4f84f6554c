package vector

import "repro/internal/cpu"

// useAVX reports whether the CPU has AVX and the OS saves the YMM
// registers. It is a variable so that a test can clear it to run the
// fallback.
var useAVX = cpu.AVX

// eaBlocks runs earlyAbandonGo's block loop over blocks 16-element blocks
// of a and b with AVX, returning the running sum after the last block or
// after the first one that brings it to limit.
//
//go:noescape
func eaBlocks(a, b *float32, blocks int, limit float64) float64

// SquaredEuclideanEarlyAbandon returns the squared Euclidean distance
// between a and b, abandoning the computation as soon as the running sum
// reaches limit, checked once per 16-element block. An abandoned result is
// the partial sum >= limit. The result is bitwise earlyAbandonGo's.
func SquaredEuclideanEarlyAbandon(a, b []float32, limit float64) float64 {
	n := min(len(a), len(b))
	if !useAVX || n < 16 {
		return earlyAbandonGo(a, b, limit)
	}
	blocks := n / 16
	sum := eaBlocks(&a[0], &b[0], blocks, limit)
	if sum >= limit {
		return sum
	}
	return addTail(a[blocks*16:n], b[blocks*16:n], sum)
}

// Kernel names the SquaredEuclideanEarlyAbandon implementation in use:
// "avx" or "go".
func Kernel() string {
	if useAVX {
		return "avx"
	}
	return "go"
}
