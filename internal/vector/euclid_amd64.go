package vector

// useAVX reports whether the CPU has AVX and the OS saves the YMM
// registers: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0
// has the SSE and AVX state bits (1 and 2).
var useAVX = cpuid1ECX()&(3<<27) == 3<<27 && xgetbv0()&6 == 6

// eaBlocks runs earlyAbandonGo's block loop over blocks 16-element blocks
// of a and b with AVX, returning the running sum after the last block or
// after the first one that brings it to limit.
//
//go:noescape
func eaBlocks(a, b *float32, blocks int, limit float64) float64

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0; callers first check OSXSAVE.
func xgetbv0() uint32

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
