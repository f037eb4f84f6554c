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
// dtw.Cascade on the raw series: LB_Keogh, then the DTW itself. An
// approximate DTW answer is the seeding descent alone: warping alignment
// keeps the query's natural leaf a good candidate, and its distance is an
// upper bound on the exact constrained-DTW distance.

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope (newKernel builds it). The distance table is built from
// the envelope's per-segment summary (max of the upper envelope, min of the
// lower), and a raw candidate is measured by dtw.Cascade.
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

// A DTW run never scans. DTW's cost is arithmetic — LB_Keogh, then the
// warping distance, paid per surviving candidate on either plan — not the
// leaf-order gather the scan avoids. On 25 000 × 128 random walks under a
// 10 % window (BenchmarkPlanCrossover, the serve-dtw shape) the sweep's
// mean falls by 4–6 % from the tree alone to the scan alone (44.3 → 42.5
// and 36.3 → 34.1 ms in two runs), while single queries go either way
// (tree/scan 0.64–1.35, 13 and 16 of 50 below 1) with no trend in the
// share: the scan is slightly ahead at every share rather than past a
// crossover, so there is no threshold to set.
func (*warped) crossover() float64 { return 2 }
