package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/tree"
)

// BuildTiming records the two construction phases separately, matching the
// stacked bars of Figure 9 ("Calculate iSAX Representations" and "Tree
// Index Construction").
type BuildTiming struct {
	Summarize time.Duration // phase 1: iSAX words of every series, then grouping positions by root subtree
	TreeBuild time.Duration // phase 2: subtree construction from each root's positions
}

// Total returns the end-to-end construction time.
func (bt BuildTiming) Total() time.Duration { return bt.Summarize + bt.TreeBuild }

// Build constructs a MESSI index over the collection using the paper's
// two-phase parallel pipeline (Algorithms 1-4). The collection must be
// non-empty and its series length a multiple of Options.Segments. The
// collection is retained by the index (not copied) and must not be
// modified afterwards.
//
// The root is keyed on the first k segments, k the smallest value ≤ w at
// which n series fit LeafCapacity·2^k (see rootBits), and the tree is the
// one a sequential insert of every series in position order under such a
// root builds, whatever the worker count and schedule.
func Build(data *series.Collection, opts Options) (*Index, error) {
	return BuildTimed(data, opts, nil)
}

// BuildTimed is Build with optional per-phase timing (timing may be nil).
func BuildTimed(data *series.Collection, opts Options, timing *BuildTiming) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("core: cannot build an index over an empty collection")
	}
	opts = opts.withDefaults()
	schema, err := isax.NewSchema(data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		return nil, err
	}
	nw := opts.IndexWorkers
	n := data.Count()
	w := schema.Segments
	k := rootBits(n, opts.LeafCapacity, w)
	tr, err := tree.NewRooted(schema, opts.LeafCapacity, k)
	if err != nil {
		return nil, err
	}
	ix := &Index{Data: data, Schema: schema, Tree: tr, Opts: opts}

	// The flat <iSAX word, position> layout of ParIS+: series j's word is
	// words[j*w:(j+1)*w] and its root subtree keys[j] (a uint16 holds every
	// slot, as isax.MaxSegments is 16). No worker owns any of it.
	words := make([]uint8, n*w)
	keys := make([]uint16, n)

	// Phase 1 — CalculateiSAXSummaries (Algorithm 3): workers claim
	// fixed-size chunks of the raw array via Fetch&Inc and write each
	// series' word and root key at its position, so the phase needs no
	// synchronization.
	//
	// The paper runs both phases in the same worker threads separated by
	// a barrier (Algorithm 2); goroutine waves joined by WaitGroups have
	// identical synchronization semantics and let us time the phases
	// separately.
	start := time.Now()
	var chunkCtr atomic.Int64
	parallel(nw, func(int) { summarizeWorker(ix, words, keys, w-k, &chunkCtr) })
	ix.fillSample(func(pos int, dst []uint8) { copy(dst, words[pos*w:(pos+1)*w]) })
	perm, scratch := partitionByRoot(keys, k, nw)
	summarizeDone := time.Now()

	// Each active root's positions are the run perm[bounds[r]:bounds[r+1]].
	var bounds []int
	for i, pos := range perm {
		if l := keys[pos]; i == 0 || l != keys[perm[i-1]] {
			ix.activeRoots = append(ix.activeRoots, int32(l))
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, n)

	// Phase 2 — TreeConstruction (Algorithm 4): the words are gathered
	// into perm's order, so each root's are one stretch of cols, then
	// workers claim whole root subtrees via Fetch&Inc; each subtree is
	// built by exactly one worker, in its own stretches of perm and cols,
	// with the same stretches of scratch and of words (no longer read) as
	// room to partition, so the build needs no synchronization. It is one
	// pass per subtree (tree.BuildRoot) rather than Algorithm 4's insert
	// per series: the same tree, without growing leaf columns or copying
	// them at splits, and cols becomes every leaf's columns.
	cols := make([]uint8, n*w)
	parallel(nw, func(t int) {
		lo, hi := t*n/nw, (t+1)*n/nw
		for i, pos := range perm[lo:hi] {
			copy(cols[(lo+i)*w:], words[int(pos)*w:int(pos)*w+w])
		}
	})
	var rootCtr atomic.Int64
	parallel(nw, func(int) {
		for {
			r := int(rootCtr.Add(1) - 1)
			if r >= len(ix.activeRoots) {
				return
			}
			lo, hi := bounds[r], bounds[r+1]
			tr.BuildRoot(int(ix.activeRoots[r]), cols[lo*w:hi*w], perm[lo:hi], words[lo*w:hi*w], scratch[lo:hi])
		}
	})

	if timing != nil {
		timing.Summarize = summarizeDone.Sub(start)
		timing.TreeBuild = time.Since(summarizeDone)
	}
	return ix, nil
}

// parallel runs fn(0) … fn(workers-1) concurrently and waits for all.
func parallel(workers int, fn func(t int)) {
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			fn(t)
		}(t)
	}
	wg.Wait()
}

// rootBits is the root key width for n series at a leaf capacity: the
// smallest k ≤ w with n ≤ capacity·2^k, so a root child holds about a
// leaf's worth. MESSI keys its root on all w segments for 100 M+ series;
// at the defaults k reaches w only above 65.5 M.
func rootBits(n, capacity, w int) int {
	k := 0
	for k < w && (n-1)>>k >= capacity {
		k++
	}
	return k
}

// summarizeWorker is one phase-1 worker: it converts raw series to iSAX
// words chunk by chunk; a root key is the top bits of RootIndex, keyShift
// = w − k of them dropped.
func summarizeWorker(ix *Index, words []uint8, keys []uint16, keyShift int, chunkCtr *atomic.Int64) {
	data := ix.Data
	schema := ix.Schema
	w := schema.Segments
	chunk := ix.Opts.ChunkSize
	count := data.Count()
	paaBuf := make([]float64, w)
	for {
		b := int(chunkCtr.Add(1) - 1)
		lo := b * chunk
		if lo >= count {
			return
		}
		hi := min(lo+chunk, count)
		for j := lo; j < hi; j++ {
			paa.Transform(data.At(j), w, paaBuf)
			word := schema.WordFromPAA(paaBuf, words[j*w:(j+1)*w])
			keys[j] = uint16(schema.RootIndex(word) >> keyShift)
		}
	}
}

// partitionByRoot returns the positions 0…len(keys)-1 grouped by k-bit root
// key in ascending key order, each group in ascending position order: a
// stable parallel LSD radix sort in ⌈k/8⌉ 8-bit passes. In each pass every
// worker counts the keys of its own static, contiguous range of the
// permutation; offsets are assigned in (bucket, worker) order, so the
// scatter keeps the previous order within a bucket. Scratch is two int32
// permutations and one 256-entry histogram per worker; the second
// permutation is returned too, as n positions of scratch for the tree
// phase.
func partitionByRoot(keys []uint16, k, workers int) (perm, scratch []int32) {
	n := len(keys)
	src, dst := make([]int32, n), make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	hist := make([][256]int, workers)
	rangeOf := func(t int) (int, int) { return t * n / workers, (t + 1) * n / workers }
	for shift := 0; shift < k; shift += 8 {
		parallel(workers, func(t int) {
			h := &hist[t]
			*h = [256]int{}
			lo, hi := rangeOf(t)
			for _, pos := range src[lo:hi] {
				h[uint8(keys[pos]>>shift)]++
			}
		})
		off := 0
		for b := 0; b < 256; b++ {
			for t := range hist {
				c := hist[t][b]
				hist[t][b] = off
				off += c
			}
		}
		parallel(workers, func(t int) {
			h := &hist[t]
			lo, hi := rangeOf(t)
			for _, pos := range src[lo:hi] {
				b := uint8(keys[pos] >> shift)
				dst[h[b]] = pos
				h[b]++
			}
		})
		src, dst = dst, src
	}
	return src, dst
}
