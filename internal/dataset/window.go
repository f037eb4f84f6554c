package dataset

import (
	"fmt"

	"repro/internal/series"
)

// SlidingWindows turns one long stream into the collection of its
// fixed-length subsequences, the preprocessing step the paper prescribes
// for streaming series ("we first create subsequences of length n using a
// sliding window, and then index those", §II-A). Subsequence i starts at
// offset i*step; when normalize is set each subsequence is z-normalized
// independently (the standard similarity-search semantics).
func SlidingWindows(stream []float32, window, step int, normalize bool) (*series.Collection, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dataset: non-positive window %d", window)
	}
	if step <= 0 {
		return nil, fmt.Errorf("dataset: non-positive step %d", step)
	}
	if len(stream) < window {
		return nil, fmt.Errorf("dataset: stream of %d points is shorter than window %d", len(stream), window)
	}
	count := (len(stream)-window)/step + 1
	c, err := series.NewEmptyCollection(count, window)
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		dst := c.At(i)
		copy(dst, stream[i*step:i*step+window])
		if normalize {
			series.ZNormalize(dst)
		}
	}
	return c, nil
}
