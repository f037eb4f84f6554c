package core

import (
	"repro/internal/isax"
	"repro/internal/paa"
)

// Per §IV ("MESSI with DTW"): "no changes are required in the index
// structure; we just have to build the envelope of the LB_Keogh method
// around the query series, and then search the index using this envelope."
// Concretely, a Request with DTW set runs the same SearchRun with the
// warped kernel: node pruning uses MINDIST between the envelope's
// per-segment bounds and the node summary — served from the same per-query
// distance table as the Euclidean path, built from the envelope summary
// instead of the PAA — and per-series filtering cascades that bound, then
// LB_Keogh on the raw series, then the DTW itself. The LB_Keogh bounds and
// the DPs each run eight candidates at a time (dtw.Batch) through the
// kernel's measure and flush, in refine and in a position-order scan
// alike. An approximate DTW answer
// is the seeding descent alone: warping alignment keeps the query's natural
// leaf a good candidate, and its distance is an upper bound on the exact
// constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower). It measures candidates through the worker's dtw.Batch, on the
// tree and on a scan alike: measure holds each candidate until eight are
// pending, their LB_Keogh bounds run in one pass, and the survivors' DPs
// run eight at a time.
type warped struct {
	query        []float32
	window       int
	upper, lower []float32 // pointwise envelope
}

func (k *warped) prepare(tab *isax.DistTable, _ []float64) {
	w := tab.Schema().Segments
	tab.BuildEnvelope(paa.SegmentMax(k.upper, w, nil), paa.SegmentMin(k.lower, w, nil))
}

// measure holds candidate x, at position pos, in the batch's pending stage,
// and once dtw.Lanes are pending, drains them against limit. Every bound of
// a pass, and every DP of a run, is taken against the limit read when the
// pass or the run starts, so a bound that falls within one lets a few
// candidates through that one candidate at a time would have stopped, and
// the answers are the same.
func (k *warped) measure(s *leafScratch, x []float32, pos int32, limit float64, coll Collector, start int64) float64 {
	s.n.LowerBoundCalcs++
	if !s.dtw.Add(x, pos) {
		return limit
	}
	return k.drain(s, limit, coll, start)
}

// drain takes the pending candidates' LB_Keogh bounds against limit in one
// pass and moves the survivors into the DP queue, running it each time it
// fills. It returns the bound after.
func (k *warped) drain(s *leafScratch, limit float64, coll Collector, start int64) float64 {
	s.dtw.Bound(k.lower, k.upper, limit)
	for s.dtw.Fill() {
		limit = k.run(s, limit, coll, start)
	}
	return limit
}

// flush drains the pending candidates and runs the DP queue's last,
// partial batch.
func (k *warped) flush(s *leafScratch, limit float64, coll Collector, start int64) float64 {
	return k.run(s, k.drain(s, limit, coll, start), coll, start)
}

// run runs the queued DPs against limit and offers each result below the
// bound, in queue order, to coll. It returns the bound after.
func (k *warped) run(s *leafScratch, limit float64, coll Collector, start int64) float64 {
	d, pos := s.dtw.Run(k.query, k.window, limit)
	s.n.RealDistCalcs += int64(len(d))
	for l, dl := range d {
		if dl < limit {
			if coll.Update(dl, start+int64(pos[l])) {
				s.n.BSFUpdates++
			}
			limit = coll.Load()
		}
	}
	return limit
}

// A DTW run never scans. Its cost is arithmetic — LB_Keogh, then the
// warping distance, paid per surviving candidate — and both plans take
// the bounds and run the DPs eight at a time. On 25 000 × 128 random walks
// under a 10 % window (BenchmarkPlanCrossover, the serve-dtw shape; every
// query's share is 0.30–1) the tree alone takes 3.66 ms per query in each
// of two runs and the scan alone 3.71. Up to a share of 0.77 the tree wins
// every query (tree/scan 0.65–0.99); from 0.91 up single queries go either
// way (0.77–1.12) and every OOD query is faster scanned (1.02–1.13). The
// sweep's best grid point, t = 0.8, saves 0.4–0.7 % against the tree
// alone (3.64 and 3.63 ms), a lever ROADMAP keeps for a change of its own.
func (*warped) crossover() float64 { return 2 }
