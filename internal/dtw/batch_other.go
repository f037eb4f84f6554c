//go:build !amd64

package dtw

// useAVX512 is false off amd64: Bound and Run take the candidates lane by
// lane.
var useAVX512 = false

func bandLanes(q *float32, n, r int, x *[Lanes]*float32, prefix *[Lanes]*float64, lanes uint64, limit float64, room *float64, d *[Lanes]float64) {
	panic("dtw: bandLanes called without AVX-512")
}

func lbLanes(x *[Lanes]*float32, lower, upper *float32, n int, limit float64, prefix *float64) uint64 {
	panic("dtw: lbLanes called without AVX-512")
}
