//go:build !amd64

package vector

// SquaredEuclideanEarlyAbandon returns the squared Euclidean distance
// between a and b, abandoning the computation as soon as the running sum
// reaches limit, checked once per 16-element block. An abandoned result is
// the partial sum >= limit.
func SquaredEuclideanEarlyAbandon(a, b []float32, limit float64) float64 {
	return earlyAbandonGo(a, b, limit)
}

// Kernel names the SquaredEuclideanEarlyAbandon implementation in use.
func Kernel() string { return "go" }
