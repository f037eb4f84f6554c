package core

import (
	"sync"

	"repro/internal/stats"
)

// The test driver of a SearchRun, standing where the query engine does in
// production: newRun prepares a run on a fresh QueryState (and a private
// collector and QoS state when the caller threads none), and drive
// executes its phases on goroutines of its own, with the all-inserted
// barrier between them.

func newRun(ix *Index, req Request, opt SearchOptions) *SearchRun {
	if opt.Shared == nil {
		opt.Shared = NewCollector(req.K)
	}
	if opt.QoS == nil {
		opt.QoS = req.NewQoS()
	}
	return ix.NewRun(req, NewQueryState(), opt)
}

func drive(run *SearchRun, workers int) {
	var inserted, wg sync.WaitGroup // inserted: the barrier of Algorithm 6 line 7
	inserted.Add(workers)
	wg.Add(workers)
	for pid := 0; pid < workers; pid++ {
		go func(pid int) {
			defer wg.Done()
			run.InsertPhase(pid)
			inserted.Done()
			inserted.Wait()
			run.DrainPhase(pid, nil)
		}(pid)
	}
	wg.Wait()
}

// runWith validates, prepares and drives one request on workers
// goroutines and returns the collector's answer.
func runWith(ix *Index, req Request, opt SearchOptions, workers int) ([]Match, error) {
	res, err := resultWith(ix, req, opt, workers)
	return res.Matches, err
}

// resultWith is runWith returning the whole Result, the tally included.
func resultWith(ix *Index, req Request, opt SearchOptions, workers int) (Result, error) {
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	if err := req.CheckShape(ix.Data.Length); err != nil {
		return Result{}, err
	}
	if opt.Shared == nil {
		opt.Shared = NewCollector(req.K)
	}
	if opt.QoS == nil {
		opt.QoS = req.NewQoS()
	}
	run := newRun(ix, req, opt)
	drive(run, workers)
	return opt.QoS.Finish(opt.Shared.Matches()), nil
}

// Helpers over runWith, one per request flavour, on the index's own
// SearchWorkers.

func runRequest(ix *Index, req Request, opt SearchOptions) ([]Match, error) {
	return runWith(ix, req, opt, ix.Opts.SearchWorkers)
}

func tallyOf(ix *Index, req Request) (stats.Tally, error) {
	res, err := resultWith(ix, req, SearchOptions{}, ix.Opts.SearchWorkers)
	return res.Tally, err
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
