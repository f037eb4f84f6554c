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
// LB_Keogh on the raw series, then the early-abandoning DTW itself. An
// approximate DTW answer is the seeding descent alone: warping alignment
// keeps the query's natural leaf a good candidate, and its distance is an
// upper bound on the exact constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower), and a raw candidate is measured by LB_Keogh first, then the
// early-abandoning DTW itself.
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
	if lb := dtw.LBKeogh(candidate, k.lower, k.upper, limit); lb >= limit {
		return lb, 1, 0
	}
	return dtw.Distance(k.query, candidate, k.window, limit), 1, 1
}
