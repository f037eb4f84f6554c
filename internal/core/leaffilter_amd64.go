package core

import "repro/internal/cpu"

// useVBMI reports whether the CPU has AVX-512 F, BW and VBMI and the OS
// saves the opmask and ZMM state. Tests clear it to run the fallback.
var useVBMI = cpu.AVX512VBMI

// leafMaskVBMI sets bit e%64 of mask[e/64] for each of a leaf's n entries
// whose saturated sum of quantized cells (qtab: w rows of 256 bytes,
// indexed by the entry's symbol in each of the w columns at cols, stride
// bytes apart) is below thresh, and clears every other bit of the
// (n+63)/64 words.
//
//go:noescape
func leafMaskVBMI(cols *uint8, stride, n, w int, qtab *uint8, thresh int, mask *uint64)
