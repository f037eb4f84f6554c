// Package scan implements the serial-scan competitors of the paper's
// evaluation:
//
//   - UCR Suite-P: "our parallel implementation of the state-of-the-art
//     optimized serial scan technique, UCR Suite. Every thread is assigned
//     a part of the in-memory data series array, and all threads
//     concurrently and independently process their own parts, performing
//     the real distance calculations in SIMD, and only synchronize at the
//     end to produce the final result." No pruning index — every series is
//     compared (with early abandoning against the thread-local best).
//   - UCR Suite DTW (serial) and UCR Suite-P DTW: the same scan under
//     constrained DTW, with the LB_Keogh cascade before each full DTW
//     computation (Figure 19).
package scan

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/series"
	"repro/internal/stats"
	"repro/internal/vector"
)

// validate checks the query against the collection.
func validate(data *series.Collection, query []float32) error {
	if data == nil || data.Count() == 0 {
		return fmt.Errorf("scan: empty collection")
	}
	if len(query) != data.Length {
		return fmt.Errorf("scan: query length %d, series length %d", len(query), data.Length)
	}
	return nil
}

// Search1NN is UCR Suite-P under squared Euclidean distance: workers scan
// static partitions with thread-local best-so-far values and merge once at
// the end. A non-nil tally takes the scan's counts.
func Search1NN(data *series.Collection, query []float32, workers int, tally *stats.Tally) (core.Match, error) {
	return Search1NNBounded(data, query, workers, math.Inf(1), tally)
}

// Search1NNBounded is Search1NN with an externally known squared-distance
// pruning bound: every worker's early-abandon threshold starts at bound
// instead of +Inf, so a caller scanning several chunks (a live index's
// delta blocks) carries its running best into each scan — the same
// bound-seeding the tree search gets from its seeds. When no
// candidate beats the bound the result has Position -1 and Dist == bound.
func Search1NNBounded(data *series.Collection, query []float32, workers int, bound float64, tally *stats.Tally) (core.Match, error) {
	if err := validate(data, query); err != nil {
		return core.Match{}, err
	}
	if workers < 1 {
		workers = 1
	}
	n := data.Count()
	if workers > n {
		workers = n
	}
	locals := make([]core.Match, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			best := core.Match{Position: -1, Dist: bound}
			for i := lo; i < hi; i++ {
				d := vector.SquaredEuclideanEarlyAbandon(data.At(i), query, best.Dist)
				if d < best.Dist {
					best = core.Match{Position: i, Dist: d}
				}
			}
			locals[w] = best
		}(w)
	}
	wg.Wait()
	if tally != nil {
		tally.RealDistCalcs += int64(n) // every series is measured
	}
	best := locals[0]
	for _, m := range locals[1:] {
		if m.Dist < best.Dist {
			best = m
		}
	}
	return best, nil
}

// kheap is a bounded max-heap of the k best matches seen by one scan
// worker; the root (worst retained match) is the early-abandon limit once
// the heap is full.
type kheap struct {
	k    int
	heap []core.Match // max-heap on Dist
}

// limit returns the current pruning threshold: the k-th best distance, or
// +Inf until k matches are held.
func (h *kheap) limit() float64 {
	if len(h.heap) < h.k {
		return math.Inf(1)
	}
	return h.heap[0].Dist
}

// offer inserts a candidate if it beats the current k-th best.
func (h *kheap) offer(m core.Match) {
	if len(h.heap) < h.k {
		h.heap = append(h.heap, m)
		i := len(h.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.heap[p].Dist >= h.heap[i].Dist {
				break
			}
			h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
			i = p
		}
		return
	}
	if m.Dist >= h.heap[0].Dist {
		return
	}
	h.heap[0] = m
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			return
		}
		big := l
		if r := l + 1; r < len(h.heap) && h.heap[r].Dist > h.heap[l].Dist {
			big = r
		}
		if h.heap[i].Dist >= h.heap[big].Dist {
			return
		}
		h.heap[i], h.heap[big] = h.heap[big], h.heap[i]
		i = big
	}
}

// SearchKNN is the k-NN generalization of Search1NN: every worker scans
// its partition keeping a thread-local k-best heap (early-abandoning each
// distance against its own k-th best), and the per-worker sets are merged
// once at the end. It returns at most k matches in ascending distance
// order (ties broken by position).
func SearchKNN(data *series.Collection, query []float32, k, workers int, tally *stats.Tally) ([]core.Match, error) {
	if err := validate(data, query); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("scan: k must be positive, got %d", k)
	}
	if workers < 1 {
		workers = 1
	}
	n := data.Count()
	if workers > n {
		workers = n
	}
	locals := make([]*kheap, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			h := &kheap{k: k}
			// The k-th-best limit only moves on offer: cache it locally
			// and refresh after insertions instead of recomputing the
			// heap root twice per candidate.
			lim := h.limit()
			for i := lo; i < hi; i++ {
				d := vector.SquaredEuclideanEarlyAbandon(data.At(i), query, lim)
				if d < lim {
					h.offer(core.Match{Position: i, Dist: d})
					lim = h.limit()
				}
			}
			locals[w] = h
		}(w)
	}
	wg.Wait()
	if tally != nil {
		tally.RealDistCalcs += int64(n) // every series is measured
	}
	var all []core.Match
	for _, h := range locals {
		all = append(all, h.heap...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Position < all[j].Position
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// SearchDTW is the DTW scan. With workers == 1 it is the serial UCR Suite
// DTW; with workers > 1 it is UCR Suite-P DTW. Each worker runs the
// LB_Keogh cascade (dtw.Cascade: envelope lower bound, then the cDTW that
// abandons on its row minimum plus the bound of the columns not yet
// reached) against its thread-local best.
func SearchDTW(data *series.Collection, query []float32, window, workers int, tally *stats.Tally) (core.Match, error) {
	return SearchDTWBounded(data, query, window, workers, math.Inf(1), tally)
}

// SearchDTWBounded is SearchDTW with an externally known squared-distance
// pruning bound (see Search1NNBounded): the LB_Keogh cascade and the DTW
// early abandon start from bound instead of +Inf.
func SearchDTWBounded(data *series.Collection, query []float32, window, workers int, bound float64, tally *stats.Tally) (core.Match, error) {
	if err := validate(data, query); err != nil {
		return core.Match{}, err
	}
	if err := dtw.CheckWindow(data.Length, window); err != nil {
		return core.Match{}, err
	}
	if workers < 1 {
		workers = 1
	}
	n := data.Count()
	if workers > n {
		workers = n
	}
	upper, lower := dtw.Envelope(query, window)
	locals := make([]core.Match, workers)
	ran := make([]int64, workers) // full DTW computations, per worker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			best := core.Match{Position: -1, Dist: bound}
			var realCount int64
			for i := lo; i < hi; i++ {
				d, ran := dtw.Cascade(query, data.At(i), lower, upper, window, best.Dist)
				if ran {
					realCount++
				}
				if d < best.Dist {
					best = core.Match{Position: i, Dist: d}
				}
			}
			ran[w] = realCount
			locals[w] = best
		}(w)
	}
	wg.Wait()
	if tally != nil {
		tally.LowerBoundCalcs += int64(n) // one LB_Keogh per series
		for _, r := range ran {
			tally.RealDistCalcs += r
		}
	}
	best := locals[0]
	for _, m := range locals[1:] {
		if m.Dist < best.Dist {
			best = m
		}
	}
	return best, nil
}
