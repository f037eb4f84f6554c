package paris

import (
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/paa"
	"repro/internal/stats"
	"repro/internal/vector"
)

// Kernel selects the distance kernels used by SIMS, reproducing the
// ParIS-SISD ablation of Figure 18.
type Kernel int

// Kernel choices.
const (
	KernelSIMD Kernel = iota // package vector's default kernels, AVX on amd64 (default)
	KernelSISD               // naive per-element kernels with per-element branches
)

// SearchOptions configures a SIMS or ParIS-TS query.
type SearchOptions struct {
	Workers int          // lower-bound / real-distance workers
	Kernel  Kernel       // SIMD (default) or SISD
	Tally   *stats.Tally // when non-nil, takes the query's operation counts
}

// Search answers an exact 1-NN query with the SIMS strategy (§II of the
// MESSI paper):
//
//  1. approximate answer: descend the tree to the query's leaf and take
//     the best real distance in it — the initial BSF;
//  2. lower-bound stage: workers sweep the ENTIRE SAX array computing
//     MINDIST(query PAA, word) for every series, collecting candidates
//     with bound < BSF (the BSF is fixed during this stage — ParIS prunes
//     only against the approximate answer here);
//  3. real-distance stage: workers share the candidate list and compute
//     early-abandoning real distances, updating a shared BSF.
func (ix *Index) Search(query []float32, opt SearchOptions) (core.Match, error) {
	if err := ix.validateQuery(query); err != nil {
		return core.Match{}, err
	}
	if ix.Data.Count() == 0 {
		return core.Match{}, core.ErrEmptyIndex
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = ix.Opts.SearchWorkers
	}
	n := ix.Data.Count()
	if workers > n {
		workers = n
	}

	qpaa := paa.Transform(query, ix.Schema.Segments, nil)
	bsf := stats.NewBSF()
	var t stats.Tally
	ix.approxSearch(query, qpaa, bsf, opt.Kernel, &t)

	// Stage 2: full SAX-array lower-bound sweep against the fixed
	// approximate BSF. Per-worker candidate lists avoid contention and
	// are concatenated after the barrier.
	approxBound := bsf.Load()
	localCands := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			cands := make([]int32, 0, (hi-lo)/16+1)
			if opt.Kernel == KernelSISD {
				// The pre-SIMD scalar lower-bound kernel: this stage
				// touches every series, so the kernel choice dominates
				// the Figure 18 SISD-vs-SIMD gap.
				for i := lo; i < hi; i++ {
					if ix.Schema.MinDistPAAWordNaive(qpaa, ix.Word(i)) < approxBound {
						cands = append(cands, int32(i))
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					if ix.Schema.MinDistPAAWord(qpaa, ix.Word(i)) < approxBound {
						cands = append(cands, int32(i))
					}
				}
			}
			localCands[w] = cands
		}(w)
	}
	wg.Wait()
	t.LowerBoundCalcs += int64(n) // every series is bounded
	total := 0
	for _, c := range localCands {
		total += len(c)
	}
	candidates := make([]int32, 0, total)
	for _, c := range localCands {
		candidates = append(candidates, c...)
	}

	// Stage 3: real distances over the candidate list, shared BSF.
	if len(candidates) > 0 {
		cw := workers
		if cw > len(candidates) {
			cw = len(candidates)
		}
		updates := make([]int64, cw) // BSF improvements, per worker
		for w := 0; w < cw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := w * len(candidates) / cw
				hi := (w + 1) * len(candidates) / cw
				for _, pos := range candidates[lo:hi] {
					limit := bsf.Load()
					d := ix.realDist(query, int(pos), limit, opt.Kernel)
					if d < limit && bsf.Update(d, int64(pos)) {
						updates[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		t.RealDistCalcs += int64(len(candidates)) // every candidate is measured
		for _, u := range updates {
			t.BSFUpdates += u
		}
	}
	if opt.Tally != nil {
		opt.Tally.Add(t)
	}

	d, pos := bsf.Best()
	return core.Match{Position: int(pos), Dist: d}, nil
}

func (ix *Index) realDist(query []float32, pos int, limit float64, k Kernel) float64 {
	if k == KernelSISD {
		return vector.ScalarSquaredEuclideanEarlyAbandon(ix.Data.At(pos), query, limit)
	}
	return vector.SquaredEuclideanEarlyAbandon(ix.Data.At(pos), query, limit)
}

// approxSearch descends to the query's leaf and seeds the BSF, exactly as
// MESSI does (ParIS uses the tree only for this step), counting into t.
func (ix *Index) approxSearch(query []float32, qpaa []float64, bsf *stats.BSF, k Kernel, t *stats.Tally) {
	qword := ix.Schema.WordFromPAA(qpaa, nil)
	root := ix.Tree.Root(ix.Schema.RootIndex(qword))
	if root == nil {
		best := math.Inf(1)
		for _, slot := range ix.activeRoots {
			r := ix.Tree.Root(int(slot))
			d := ix.Schema.MinDistPAAPrefix(qpaa, r.Symbols, r.Bits)
			t.LowerBoundCalcs++
			if d < best {
				best = d
				root = r
			}
		}
	}
	if root == nil {
		return
	}
	leaf := ix.Tree.DescendToLeaf(root, qword)
	for i := 0; i < leaf.LeafLen(); i++ {
		pos := leaf.Positions[i]
		d := ix.realDist(query, int(pos), bsf.Load(), k)
		t.RealDistCalcs++
		if d < bsf.Load() && bsf.Update(d, int64(pos)) {
			t.BSFUpdates++
		}
	}
}
