package core

// Test helpers over NewRun, one per request flavour, standing where the
// per-flavour entry points used to: each validates, prepares and runs one
// request in spawn mode.

func runRequest(ix *Index, req Request, opt SearchOptions) ([]Match, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := req.CheckShape(ix.Data.Length); err != nil {
		return nil, err
	}
	run, err := ix.NewRun(req, nil, opt)
	if err != nil {
		return nil, err
	}
	run.Run()
	return run.Matches(), nil
}

func first(ms []Match, err error) (Match, error) {
	if err != nil {
		return Match{}, err
	}
	return ms[0], nil
}

func nn1(ix *Index, q []float32, opt SearchOptions) (Match, error) {
	return first(runRequest(ix, Request{Query: q}, opt))
}

func knn(ix *Index, q []float32, k int, opt SearchOptions) ([]Match, error) {
	return runRequest(ix, Request{Query: q, K: k}, opt)
}

func dtwNN(ix *Index, q []float32, window int, opt SearchOptions) (Match, error) {
	return first(runRequest(ix, Request{Query: q, DTW: true, Window: window}, opt))
}

func approxNN(ix *Index, q []float32, opt SearchOptions) (Match, error) {
	return first(runRequest(ix, Request{Query: q, Mode: ModeApprox}, opt))
}
