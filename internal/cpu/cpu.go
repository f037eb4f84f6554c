// Package cpu reports which of the instruction sets the repository's
// assembly kernels need the CPU has and the OS has enabled. It holds the
// one copy of the CPUID and XGETBV stubs; each kernel's package copies the
// predicate it needs into a variable of its own, which its tests clear to
// run the pure-Go fallback.
package cpu

// AVX reports AVX with the YMM state saved by the OS: the Euclidean
// kernel (internal/vector).
var AVX bool

// AVX512F reports AVX-512 F with the opmask and ZMM state saved by the
// OS: the DTW batch kernels (internal/dtw).
var AVX512F bool

// AVX512VBMI reports AVX-512 F, BW and VBMI with the same OS support as
// AVX512F: the quantized leaf filter (internal/core).
var AVX512VBMI bool
