package cpu

// The predicates read CPUID leaf 1 (ECX: OSXSAVE bit 27, AVX bit 28) and
// leaf 7 (EBX: AVX-512 F bit 16, BW bit 30; ECX: VBMI bit 1), and XCR0,
// which names the register state the OS saves: bits 1 and 2 (SSE, YMM)
// for AVX, and also 5–7 (opmask, ZMM) for AVX-512.
func init() {
	maxLeaf, _, _ := cpuid(0, 0)
	_, _, ecx1 := cpuid(1, 0)
	if ecx1&(1<<27) == 0 {
		return // no OSXSAVE: XCR0 cannot be read
	}
	xcr0 := xgetbv0()
	AVX = ecx1&(1<<28) != 0 && xcr0&0x6 == 0x6
	if maxLeaf < 7 || xcr0&0xE6 != 0xE6 {
		return
	}
	_, ebx, ecx := cpuid(7, 0)
	AVX512F = ebx&(1<<16) != 0
	AVX512VBMI = AVX512F && ebx&(1<<30) != 0 && ecx&(1<<1) != 0
}

// cpuid returns EAX, EBX and ECX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of XCR0; callers first check OSXSAVE.
func xgetbv0() uint32
