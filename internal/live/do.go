package live

import "repro/internal/core"

// Do serves one quality-of-service request over the union of the immutable
// generation and the delta — the index's only query method. The delta is
// always scanned exactly — it is small by construction, so even
// approximate and deadline requests afford it — and its best matches seed
// the engine request, so the tree search honors the same contract (one
// shared collector, one QoS state) as the static backends. With no
// generation yet, the exhaustive delta scan IS the whole search, so the
// answer is exact whatever the requested mode.
func (ix *Index) Do(req core.Request) (core.Result, error) {
	if err := req.Validate(); err != nil {
		return core.Result{}, err
	}
	if err := req.CheckShape(ix.seriesLen); err != nil {
		return core.Result{}, err
	}
	v := ix.view.Load()
	var seeds []core.Match
	var err error
	switch {
	case req.DTW:
		seeds, err = ix.deltaDTW(v, req.Query, req.Window, req.Counters)
	case req.K > 1:
		seeds, err = ix.deltaKNN(v, req.Query, req.K, req.Counters)
	default:
		seeds, err = ix.delta1NN(v, req.Query, req.Counters)
	}
	if err != nil {
		return core.Result{}, err
	}

	if v.base == nil {
		if len(seeds) == 0 {
			return core.Result{}, ErrEmpty
		}
		return core.Result{Matches: seeds, Exact: true}, nil
	}
	// The engine generation may be one rebuild ahead of v — safe, the
	// frozen series exist in both at the same positions and the collector
	// dedupes by position.
	return ix.eng.Do(req, seeds)
}
