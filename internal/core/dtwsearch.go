package core

import (
	"fmt"

	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/stats"
)

// SearchDTW answers an exact 1-NN query under constrained DTW with a
// Sakoe-Chiba band of the given radius (in points; use dtw.WindowSize to
// convert the paper's percentage windows).
//
// Per §IV ("MESSI with DTW"): "no changes are required in the index
// structure; we just have to build the envelope of the LB_Keogh method
// around the query series, and then search the index using this envelope."
// Concretely, node pruning uses MINDIST between the envelope's per-segment
// bounds and the node summary — served from the same per-query distance
// table as the Euclidean path, built from the envelope summary instead of
// the PAA — and per-series filtering cascades that bound, then LB_Keogh on
// the raw series, then the early-abandoning DTW itself.
func (ix *Index) SearchDTW(query []float32, window int, opt SearchOptions) (Match, error) {
	if err := ix.validateDTW(query, window); err != nil {
		return Match{}, err
	}
	r := ix.newBSFRun(query, &warped{query: query, window: window}, nil, opt)
	r.Run()
	r.releaseTable()
	return r.Best(), nil
}

// validateDTW checks the query shape and the warping window.
func (ix *Index) validateDTW(query []float32, window int) error {
	if err := ix.validateQuery(query); err != nil {
		return err
	}
	if err := dtw.CheckWindow(ix.Data.Length, window); err != nil {
		return fmt.Errorf("%w: %w", ErrBadWindow, err)
	}
	return nil
}

// warped is the DTW kernel: the query, its warping window and its
// LB_Keogh envelope. The distance table is built from the envelope's
// per-segment summary (max of the upper envelope, min of the lower), and a
// raw candidate is measured by LB_Keogh first, then the early-abandoning
// DTW itself.
type warped struct {
	query        []float32
	window       int
	upper, lower []float32 // pointwise envelope, set by prepare
}

func (k *warped) prepare(tab *isax.DistTable, _ []float64) {
	k.upper, k.lower = dtw.Envelope(k.query, k.window)
	w := tab.Schema().Segments
	tab.BuildEnvelope(paa.SegmentMax(k.upper, w, nil), paa.SegmentMin(k.lower, w, nil))
}

func (k *warped) dist(candidate []float32, limit float64) (float64, int64, int64) {
	if lb := dtw.LBKeogh(candidate, k.lower, k.upper, limit); lb >= limit {
		return lb, 1, 0
	}
	return dtw.Distance(k.query, candidate, k.window, limit), 1, 1
}

// ApproxDTW answers an approximate 1-NN DTW query: only the BSF-seeding
// descent of SearchDTW (plus any seeds) into the leaf matching the query's
// own word — warping alignment keeps the query's natural leaf a good
// candidate. Its distance is an upper bound on the exact constrained-DTW
// distance. Falls back to the exact search when the descent finds nothing.
func (ix *Index) ApproxDTW(query []float32, window int, opt SearchOptions) (Match, error) {
	if err := ix.validateDTW(query, window); err != nil {
		return Match{}, err
	}
	kern := &warped{query: query, window: window}
	tab := ix.getTable()
	defer ix.putTable(tab)
	kern.prepare(tab, nil)
	bsf := stats.NewBSF()
	for _, s := range opt.Seeds {
		bsf.Update(s.Dist, int64(s.Position))
	}
	qpaa := paa.Transform(query, ix.Schema.Segments, nil)
	qword := ix.Schema.WordFromPAA(qpaa, nil)
	ix.approxSearch(qpaa, qword, tab, kern, workerBound(bsf, opt.GlobalPos), opt.Counters)
	d, pos := bsf.Best()
	if pos < 0 {
		return ix.SearchDTW(query, window, opt)
	}
	return Match{Position: int(pos), Dist: d}, nil
}
