package core

import (
	"repro/internal/dtw"
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
// LB_Keogh on the raw series, then the DTW itself, whose DPs run eight
// candidates at a time (dtw.Batch) through the kernel's measure and flush,
// in refine and in a position-order scan alike. An approximate DTW answer
// is the seeding descent alone: warping alignment keeps the query's natural
// leaf a good candidate, and its distance is an upper bound on the exact
// constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower). It measures candidates through the worker's dtw.Batch, on the
// tree and on a scan alike: measure takes each LB_Keogh bound in turn and
// queues the survivors, and the DPs run eight at a time.
type warped struct {
	query        []float32
	window       int
	upper, lower []float32 // pointwise envelope
}

func (k *warped) prepare(tab *isax.DistTable, _ []float64) {
	w := tab.Schema().Segments
	tab.BuildEnvelope(paa.SegmentMax(k.upper, w, nil), paa.SegmentMin(k.lower, w, nil))
}

// measure takes candidate x's LB_Keogh bound against limit and queues x, at
// position pos, for the DP unless the bound rules it out, and runs the DPs
// once dtw.Lanes are queued. Every DP of a batch runs against the limit
// read when the batch runs, so a bound that falls within it lets a few
// candidates reach the DP that one candidate at a time would have
// abandoned, and the answers are the same.
func (k *warped) measure(s *leafScratch, x []float32, pos int32, limit float64, coll Collector, start int64) float64 {
	s.n.LowerBoundCalcs++
	if !s.dtw.Add(x, k.lower, k.upper, limit) {
		return limit
	}
	s.pend[s.dtw.Len()-1] = pos
	if s.dtw.Len() < dtw.Lanes {
		return limit
	}
	return k.flush(s, limit, coll, start)
}

// flush runs the queued DPs against limit and offers each result below the
// bound, in queue order, to coll. It returns the bound after.
func (k *warped) flush(s *leafScratch, limit float64, coll Collector, start int64) float64 {
	d := s.dtw.Run(k.query, k.window, limit)
	s.n.RealDistCalcs += int64(len(d))
	for l, dl := range d {
		if dl < limit {
			if coll.Update(dl, start+int64(s.pend[l])) {
				s.n.BSFUpdates++
			}
			limit = coll.Load()
		}
	}
	return limit
}

// A DTW run never scans. Its cost is arithmetic — LB_Keogh, then the
// warping distance, paid per surviving candidate — and both plans run the
// DPs eight at a time. On 25 000 × 128 random walks under a 10 % window
// (BenchmarkPlanCrossover, the serve-dtw shape; every query's share is
// 0.30–1) the tree alone takes 5.98 and 5.76 ms per query in two runs and
// the scan alone 5.98 and 5.76. Up to a share of 0.77 the tree wins every
// query but one (tree/scan 0.65–1.04); from 0.91 up single queries go
// either way (0.88–1.13) and every OOD query is faster scanned (1.05–1.12).
// The sweep's best grid point, t = 0.8, saves 2.2–2.4 % against the tree
// alone (5.85 and 5.62 ms), a lever ROADMAP keeps for a change of its own.
func (*warped) crossover() float64 { return 2 }
