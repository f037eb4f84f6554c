package core

import (
	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/stats"
)

// Per §IV ("MESSI with DTW"): "no changes are required in the index
// structure; we just have to build the envelope of the LB_Keogh method
// around the query series, and then search the index using this envelope."
// Concretely, a Request with DTW set runs the same SearchRun with the
// warped kernel: node pruning uses MINDIST between the envelope's
// per-segment bounds and the node summary — served from the same per-query
// distance table as the Euclidean path, built from the envelope summary
// instead of the PAA — and per-series filtering cascades that bound, then
// LB_Keogh on the raw series, then the DTW itself, whose DPs refine runs
// eight candidates at a time (dtw.Batch). An approximate DTW answer is the
// seeding descent alone: warping alignment keeps the query's natural leaf
// a good candidate, and its distance is an upper bound on the exact
// constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower). refine measures a leaf's candidates through the worker's
// dtw.Batch (offer); a position-order scan, dist, through dtw.Cascade.
type warped struct {
	query        []float32
	window       int
	upper, lower []float32 // pointwise envelope
}

func (k *warped) prepare(tab *isax.DistTable, _ []float64) {
	w := tab.Schema().Segments
	tab.BuildEnvelope(paa.SegmentMax(k.upper, w, nil), paa.SegmentMin(k.lower, w, nil))
}

func (k *warped) dist(candidate []float32, limit float64) (float64, int64, int64) {
	d, ran := dtw.Cascade(k.query, candidate, k.lower, k.upper, k.window, limit)
	if !ran {
		return d, 1, 0
	}
	return d, 1, 1
}

// offer is the warped kernel's half of refine: it takes candidate x's
// LB_Keogh bound against limit and queues x, at position pos, for the DP
// unless the bound rules it out, and runs the DPs once dtw.Lanes are
// queued. It returns the limit as it stands after. Every DP of a batch
// runs against the limit read when the batch runs, so a bound that falls
// within it lets a few candidates reach the DP that one candidate at a
// time would have abandoned, and the answers are the same.
func (s *leafScratch) offer(k *warped, x []float32, pos int32, limit float64,
	coll Collector, start int64, t *stats.Tally) float64 {

	if !s.dtw.Add(x, k.lower, k.upper, limit) {
		return limit
	}
	s.pend[s.dtw.Len()-1] = pos
	if s.dtw.Len() < dtw.Lanes {
		return limit
	}
	return s.runDTW(k, limit, coll, start, t)
}

// runDTW runs the queued DPs against limit and offers each result below
// the bound, in queue order, to coll. It returns the bound after.
func (s *leafScratch) runDTW(k *warped, limit float64, coll Collector, start int64, t *stats.Tally) float64 {
	d := s.dtw.Run(k.query, k.window, limit)
	t.RealDistCalcs += int64(len(d))
	for l, dl := range d {
		if dl < limit {
			if coll.Update(dl, start+int64(s.pend[l])) {
				t.BSFUpdates++
			}
			limit = coll.Load()
		}
	}
	return limit
}

// A DTW run never scans. Its cost is arithmetic — LB_Keogh, then the
// warping distance, paid per surviving candidate — and only the tree's
// refine runs the DPs eight at a time; a scan measures its candidates one
// by one through dtw.Cascade. On 25 000 × 128 random walks under a 10 %
// window (BenchmarkPlanCrossover, the serve-dtw shape; every query's share
// is 0.30–1) the tree alone takes 5.75 and 5.81 ms per query in two runs
// and the scan alone 19.60 and 19.83, and every single query is faster on
// the tree (tree/scan 0.20–0.56): there is no crossover.
func (*warped) crossover() float64 { return 2 }
