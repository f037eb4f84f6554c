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
// LB_Keogh on the raw series, then the DTW itself. The LB_Keogh bounds run
// eight candidates at a time and the DPs in eight refilling lanes
// (dtw.Batch), through the kernel's measure and flush, in refine and in a
// position-order scan alike. The plan is the Euclidean one too: the run
// samples the share of words whose envelope bound survives the seed's
// bound and scans above the one crossover. An approximate DTW answer
// is the seeding descent alone: warping alignment keeps the query's natural
// leaf a good candidate, and its distance is an upper bound on the exact
// constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower). It measures candidates through the worker's dtw.Batch, on the
// tree and on a scan alike: measure holds each candidate until eight are
// pending, their LB_Keogh bounds run in one pass, and the survivors' DPs
// run in eight lanes, each taking the next survivor as its DP stops.
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
// and once dtw.Lanes are pending, drains them against limit. The bound
// pass takes every bound of its candidates against the limit read when it
// starts, so a bound that falls within one lets a few candidates through
// that one candidate at a time would have stopped, and the answers are the
// same.
func (k *warped) measure(s *leafScratch, x []float32, pos int32, limit float64, coll Collector, start int64) float64 {
	s.n.LowerBoundCalcs++
	if !s.dtw.Add(x, pos) {
		return limit
	}
	s.n.RealDistCalcs += int64(s.dtw.Bound(k.lower, k.upper, limit))
	return k.run(s, limit, coll, start, false)
}

// flush takes the pending candidates' bounds against limit and runs every
// DP to its end.
func (k *warped) flush(s *leafScratch, limit float64, coll Collector, start int64) float64 {
	s.n.RealDistCalcs += int64(s.dtw.Bound(k.lower, k.upper, limit))
	return k.run(s, limit, coll, start, true)
}

// run calls the batch's Run (or, to flush, Flush) until it returns no
// result, offering each result below the bound, in the order returned, to
// coll and re-reading the bound before every call. It returns the bound
// after.
func (k *warped) run(s *leafScratch, limit float64, coll Collector, start int64, flush bool) float64 {
	for {
		var d []float64
		var pos []int32
		if flush {
			d, pos = s.dtw.Flush(k.query, k.window, limit)
		} else {
			d, pos = s.dtw.Run(k.query, k.window, limit)
		}
		if len(d) == 0 {
			return limit
		}
		for l, dl := range d {
			if dl < limit {
				if coll.Update(dl, start+int64(pos[l])) {
					s.n.BSFUpdates++
				}
				limit = coll.Load()
			}
		}
		limit = coll.Load()
	}
}
