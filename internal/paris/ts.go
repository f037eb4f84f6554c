package paris

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/paa"
	"repro/internal/pqueue"
	"repro/internal/stats"
	"repro/internal/tree"
)

// SearchTS is ParIS-TS: the paper's "extension of ParIS, where we
// implemented in a parallel fashion the traditional tree-based exact
// search algorithm" (§IV-A). Workers share a single priority queue and
// concurrently (1) insert nodes — inner nodes AND leaves — that cannot be
// pruned on their lower bound, and (2) pop nodes, expanding inner nodes
// and computing real distances for leaves.
//
// The three deliberate differences from MESSI (quoted from the paper):
// MESSI (a) completes the tree pass before any real-distance work,
// (b) inserts only leaves, and (c) re-filters against the BSF when
// popping. ParIS-TS does none of these, which is why it pays more queue
// synchronization and more distance work — the gap Figures 11/12/18 show.
func (ix *Index) SearchTS(query []float32, opt SearchOptions) (core.Match, error) {
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

	qpaa := paa.Transform(query, ix.Schema.Segments, nil)
	bsf := stats.NewBSF()
	var t stats.Tally
	ix.approxSearch(query, qpaa, bsf, opt.Kernel, &t)

	q := pqueue.New[*tree.Node](256)
	// Seed: all non-prunable root children.
	for _, slot := range ix.activeRoots {
		r := ix.Tree.Root(int(slot))
		d := ix.Schema.MinDistPAAPrefix(qpaa, r.Symbols, r.Bits)
		t.LowerBoundCalcs++
		if d < bsf.Load() {
			q.Push(d, r)
		}
	}

	// Producer-consumer best-first search. active counts workers holding
	// a popped node (they may still push children); a worker only
	// terminates when the queue is empty AND no peer is active.
	var active atomic.Int64
	tallies := make([]stats.Tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tallies[w] = ix.tsWorker(q, &active, query, qpaa, bsf, opt.Kernel)
		}(w)
	}
	wg.Wait()
	if opt.Tally != nil {
		for _, wt := range tallies {
			t.Add(wt)
		}
		opt.Tally.Add(t)
	}

	d, pos := bsf.Best()
	return core.Match{Position: int(pos), Dist: d}, nil
}

// tsWorker drains the shared queue until no worker holds work, and returns
// its tally.
func (ix *Index) tsWorker(q *pqueue.Queue[*tree.Node], active *atomic.Int64,
	query []float32, qpaa []float64, bsf *stats.BSF, k Kernel) stats.Tally {

	var t stats.Tally
	wordBuf := make([]uint8, ix.Schema.Segments) // per-worker word gather scratch
	for {
		item, ok := q.PopMin()
		if !ok {
			if active.Load() > 0 {
				// A peer may still push work; yield and retry.
				runtime.Gosched()
				continue
			}
			// No active peers: one final race-free re-check (peers push
			// before decrementing active, so an empty queue here is
			// conclusive).
			if item, ok = q.PopMin(); !ok {
				return t
			}
		}
		active.Add(1)
		ix.tsProcess(item, q, query, qpaa, wordBuf, bsf, k, &t)
		active.Add(-1)
	}
}

func (ix *Index) tsProcess(item pqueue.Item[*tree.Node], q *pqueue.Queue[*tree.Node],
	query []float32, qpaa []float64, wordBuf []uint8, bsf *stats.BSF, k Kernel, t *stats.Tally) {

	node := item.Value
	if item.Priority >= bsf.Load() {
		// Stale bound: drop the node. (Unlike MESSI, the single shared
		// queue cannot be abandoned wholesale — concurrent producers may
		// still insert better nodes — so draining continues.)
		t.LeavesPruned++
		return
	}
	if !node.IsLeaf() {
		for _, child := range []*tree.Node{node.Left, node.Right} {
			t.NodesVisited++
			t.LowerBoundCalcs++
			d := ix.Schema.MinDistPAAPrefix(qpaa, child.Symbols, child.Bits)
			if d < bsf.Load() {
				q.Push(d, child)
			}
		}
		return
	}
	// Leaf: per-series lower bound, then real distance. The leaf stores
	// words segment-major; ParIS-TS keeps its historical per-entry scalar
	// kernel (that gap is what the ablation measures), so it gathers each
	// word into the worker's scratch buffer.
	w := ix.Schema.Segments
	t.LowerBoundCalcs += int64(node.LeafLen())
	for i := 0; i < node.LeafLen(); i++ {
		lb := ix.Schema.MinDistPAAWord(qpaa, node.Word(i, w, wordBuf))
		limit := bsf.Load()
		if lb >= limit {
			continue
		}
		pos := node.Positions[i]
		d := ix.realDist(query, int(pos), limit, k)
		t.RealDistCalcs++
		if d < limit && bsf.Update(d, int64(pos)) {
			t.BSFUpdates++
		}
	}
}
