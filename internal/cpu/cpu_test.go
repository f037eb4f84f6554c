package cpu

import "testing"

// TestReport names the instruction sets the assembly kernels dispatch on,
// so that a run with -v shows which arms a green test run covered: without
// AVX-512 F the DTW kernels run their fallbacks, without AVX-512 VBMI the
// leaf filter its exact scalar one.
func TestReport(t *testing.T) {
	t.Logf("AVX=%v AVX512F=%v AVX512VBMI=%v", AVX, AVX512F, AVX512VBMI)
	if AVX512VBMI && !AVX512F {
		t.Fatal("AVX512VBMI without AVX512F")
	}
}
