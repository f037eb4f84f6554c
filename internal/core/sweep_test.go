package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/tree"
)

// passCounts is what a tree pass counts.
type passCounts struct{ nodes, lowerBounds, leaves int64 }

// refTraverse is the tree pass without the flat root level: Algorithm 7
// from a root node down, every bound MinDistPrefix over the node's own
// symbols and bits, against the fixed limit (no insert phase tightens the
// bound). pruned counts the subtrees it cut.
func refTraverse(r *SearchRun, node *tree.Node, limit float64, c *passCounts, pruned *int) {
	c.nodes++
	c.lowerBounds++
	if r.qos.prunes(r.table.MinDistPrefix(node.Symbols, node.Bits), limit) {
		*pruned++
		return
	}
	if node.IsLeaf() {
		if node.LeafLen() > 0 {
			c.leaves++
		}
		return
	}
	refTraverse(r, node.Left, limit, c, pruned)
	refTraverse(r, node.Right, limit, c, pruned)
}

// sweepIndex builds an index whose active roots fill more than four
// claimed blocks: a leaf capacity of 4 keys 12 000 series' root on k = 12
// segments.
func sweepIndex(t *testing.T) *Index {
	t.Helper()
	opts := smallOpts()
	opts.LeafCapacity = 4
	ix := buildTestIndex(t, dataset.RandomWalk, 12000, 64, opts)
	if n := len(ix.activeRoots); n < 4*rootBlock {
		t.Fatalf("%d active roots, want at least %d", n, 4*rootBlock)
	}
	return ix
}

// TestRootSweepCountsMatchReference: the insert phase, sweeping root keys
// in claimed blocks on any number of workers, visits, bounds and inserts
// exactly what the recursive walk over every root node does, Euclidean and
// DTW.
func TestRootSweepCountsMatchReference(t *testing.T) {
	ix := sweepIndex(t)
	window := dtw.WindowSize(ix.Data.Length, 0.1)
	pruned, below, leaves := 0, int64(0), int64(0) // over every case
	for qi, q := range noisyTier(10).queries(ix.Data, 3, 5) {
		for _, req := range []Request{{Query: q}, {Query: q, DTW: true, Window: window}} {
			for _, workers := range []int{1, 2, 4, 8} {
				opt := SearchOptions{Shared: NewCollector(1), QoS: req.NewQoS()}
				run := newRun(ix, req, opt)
				forcePlan(run, false)
				var want passCounts
				prunedHere := 0
				for _, key := range ix.activeRoots {
					refTraverse(run, ix.Tree.Root(int(key)), run.bnd.Load(), &want, &prunedHere)
				}
				pruned += prunedHere
				below += want.nodes - int64(len(ix.activeRoots))
				leaves += want.leaves

				prepared := opt.QoS.total
				var wg sync.WaitGroup
				for pid := 0; pid < workers; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						run.InsertPhase(pid)
					}(pid)
				}
				wg.Wait()
				total := opt.QoS.total
				got := passCounts{
					nodes:       total.NodesVisited - prepared.NodesVisited,
					lowerBounds: total.LowerBoundCalcs - prepared.LowerBoundCalcs,
					leaves:      total.LeavesInserted - prepared.LeavesInserted,
				}
				if got != want {
					t.Fatalf("query %d (DTW %v), %d workers: insert phase counted %+v, reference %+v",
						qi, req.DTW, workers, got, want)
				}
			}
		}
	}
	if pruned == 0 || below == 0 || leaves == 0 {
		t.Fatalf("the reference pruned %d subtrees, visited %d nodes below the roots and inserted %d leaves; want some of each",
			pruned, below, leaves)
	}
}

// TestRootSweepStopsBeforeFirstClaim: a run whose deadline has passed, or
// whose request is cancelled, before the insert phase claims its first
// block visits no node and returns the approximate answer flagged inexact.
func TestRootSweepStopsBeforeFirstClaim(t *testing.T) {
	ix := sweepIndex(t)
	q := noisyTier(10).queries(ix.Data, 1, 9)[0]
	cancelled := make(chan struct{})
	close(cancelled)
	for _, req := range []Request{
		{Query: q, Mode: ModeDeadline, Deadline: time.Now().Add(-time.Millisecond)},
		{Query: q, Cancel: cancelled},
	} {
		opt := SearchOptions{Shared: NewCollector(1), QoS: req.NewQoS()}
		run := newRun(ix, req, opt)
		forcePlan(run, false)
		drive(run, 4)
		res := opt.QoS.Finish(opt.Shared.Matches())
		if res.Exact || len(res.Matches) != 1 || res.Tally.NodesVisited != 0 || res.Tally.LeavesInserted != 0 {
			t.Fatalf("mode %v, cancelled %v: exact=%v matches=%v nodes=%d leaves=%d; want inexact, one match, no node",
				req.Mode, req.Cancel != nil, res.Exact, res.Matches, res.Tally.NodesVisited, res.Tally.LeavesInserted)
		}
	}
}
