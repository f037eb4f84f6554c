//go:build !amd64

package dtw

// useAVX512 is false off amd64: Bound and Run take the candidates lane by
// lane.
var useAVX512 = false

func bandLanes(s *lanes, q *float32, slacked float64, drain bool) uint64 {
	panic("dtw: bandLanes called without AVX-512")
}

func lbLanes(x *[Lanes]*float32, lower, upper *float32, n int, limit float64, prefix *float64) uint64 {
	panic("dtw: lbLanes called without AVX-512")
}
