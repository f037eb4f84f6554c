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
// The tree is the one a sequential insert of every series in position
// order builds, whatever the worker count and schedule.
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
	tr, err := tree.New(schema, opts.LeafCapacity)
	if err != nil {
		return nil, err
	}
	ix := &Index{Data: data, Schema: schema, Tree: tr, Opts: opts}

	nw := opts.IndexWorkers
	n := data.Count()
	w := schema.Segments
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
	parallel(nw, func(int) { summarizeWorker(ix, words, keys, &chunkCtr) })
	perm := partitionByRoot(keys, nw)
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

	// Phase 2 — TreeConstruction (Algorithm 4): workers claim whole root
	// subtrees via Fetch&Inc; each subtree is built by exactly one worker,
	// so inserts need no synchronization.
	var rootCtr atomic.Int64
	parallel(nw, func(int) {
		for {
			r := int(rootCtr.Add(1) - 1)
			if r >= len(ix.activeRoots) {
				return
			}
			root := tr.EnsureRoot(int(ix.activeRoots[r]))
			for _, pos := range perm[bounds[r]:bounds[r+1]] {
				tr.Insert(root, words[int(pos)*w:(int(pos)+1)*w], pos)
			}
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

// summarizeWorker is one phase-1 worker: it converts raw series to iSAX
// words chunk by chunk.
func summarizeWorker(ix *Index, words []uint8, keys []uint16, chunkCtr *atomic.Int64) {
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
			keys[j] = uint16(schema.RootIndex(word))
		}
	}
}

// partitionByRoot returns the positions 0…len(keys)-1 grouped by root key
// in ascending key order, each group in ascending position order: a stable
// parallel LSD radix sort in two 8-bit passes. In each pass every worker
// counts the keys of its own static, contiguous range of the permutation;
// offsets are assigned in (bucket, worker) order, so the scatter keeps the
// previous order within a bucket. Scratch is two int32 permutations and
// one 256-entry histogram per worker.
func partitionByRoot(keys []uint16, workers int) []int32 {
	n := len(keys)
	src, dst := make([]int32, n), make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	hist := make([][256]int, workers)
	rangeOf := func(t int) (int, int) { return t * n / workers, (t + 1) * n / workers }
	for shift := uint(0); shift < 16; shift += 8 {
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
	return src
}
