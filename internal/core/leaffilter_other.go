//go:build !amd64

package core

// useVBMI is false off amd64: every leaf scan takes the exact filter.
var useVBMI = false

func leafMaskVBMI(cols *uint8, stride, n, w int, qtab *uint8, thresh int, mask *uint64) {
	panic("core: leafMaskVBMI called without VBMI")
}
