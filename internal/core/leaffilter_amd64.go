package core

// useVBMI reports whether the CPU has AVX-512 F, BW and VBMI (CPUID leaf 7:
// EBX bits 16 and 30, ECX bit 1) and the OS saves the opmask and ZMM state:
// CPUID.1:ECX has OSXSAVE (bit 27) and XCR0 has bits 1, 2 and 5–7 (0xE6).
// Tests clear it to run the fallback.
var useVBMI = func() bool {
	maxLeaf, _, _ := cpuid(0, 0)
	if _, _, ecx := cpuid(1, 0); maxLeaf < 7 || ecx&(1<<27) == 0 {
		return false
	}
	_, ebx, ecx := cpuid(7, 0)
	return ebx&(1<<16|1<<30) == 1<<16|1<<30 && ecx&(1<<1) != 0 && xgetbv0()&0xE6 == 0xE6
}()

// leafMaskVBMI sets bit e%64 of mask[e/64] for each of a leaf's n entries
// whose saturated sum of quantized cells (qtab: w rows of 256 bytes,
// indexed by the entry's symbol in each of the w columns at cols, stride
// bytes apart) is below thresh, and clears every other bit of the
// (n+63)/64 words.
//
//go:noescape
func leafMaskVBMI(cols *uint8, stride, n, w int, qtab *uint8, thresh int, mask *uint64)

// cpuid returns EAX, EBX and ECX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of XCR0; callers first check OSXSAVE.
func xgetbv0() uint32
