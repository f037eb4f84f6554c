package engine

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/stats"
)

// Do serves one quality-of-service request through the engine — its only
// query method: admission gate, the overload-degradation policy
// (Options.DegradeEpsilon), then pooled execution, whatever the distance,
// answer shape or mode. seeds are externally known candidate matches with
// global positions (the live index's delta-scan results), applied to the
// pruning bound before the search starts; a seed that remains best is part
// of the answer.
func (e *Engine) Do(req core.Request, seeds []core.Match) (core.Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return core.Result{}, ErrClosed
	}

	// With metrics on, every query contributes its operation counts to the
	// cumulative pruning-efficiency counters, whether or not the caller
	// asked for a per-query trace.
	var start time.Time
	if e.met != nil {
		start = time.Now()
		if req.Counters == nil {
			req.Counters = &stats.Counters{}
		}
	}

	// Overload degradation: with the admission gate full, an exact request
	// would pay queueing latency on top of exact-search latency. When the
	// engine is configured to degrade, rewrite it to an ε-bounded request
	// instead — it still waits for admission, but runs far cheaper once
	// admitted, and the result honestly reports what was proven. Requests
	// that chose their mode explicitly are never rewritten.
	if req.Mode == core.ModeExact && e.opts.DegradeEpsilon > 0 && len(e.admit) == cap(e.admit) {
		req.Mode = core.ModeEpsilon
		req.Epsilon = e.opts.DegradeEpsilon
		if e.met != nil {
			e.met.degraded.Inc()
		}
	}
	mode := req.Mode

	admitted, err := e.admitQoS(req)
	if err != nil {
		return core.Result{}, err
	}
	if admitted {
		defer func() { <-e.admit }()
	} else {
		// The deadline expired while waiting for admission. The contract is
		// best-so-far within the budget, so bypass the gate for the cheap
		// approximate step only (one leaf scan per shard — bounded work
		// even under overload) and report it as what it is: an inexact
		// answer.
		req.Mode = core.ModeApprox
	}

	sx := e.sx.Load()
	if sx == nil {
		return core.Result{}, ErrNoIndex
	}
	res, err := e.run(sx, req, seeds)
	if err != nil {
		return core.Result{}, err
	}
	if e.met != nil {
		e.met.recordOutcome(mode, time.Since(start), res.Exact)
		e.met.recordCounters(req.Counters.Snapshot())
	}
	return res, nil
}

// admitQoS waits for an admission slot, honoring the request's
// cancellation signal and deadline. It reports whether a slot was taken
// (false only when a deadline expired while waiting); cancellation is an
// error, matching context semantics. Release by receiving from e.admit.
func (e *Engine) admitQoS(req core.Request) (bool, error) {
	var timerC <-chan time.Time
	if req.Mode == core.ModeDeadline && !req.Deadline.IsZero() {
		t := time.NewTimer(time.Until(req.Deadline))
		defer t.Stop()
		timerC = t.C
	}
	waitStart := e.met.waitStart()
	defer e.met.waitEnd(waitStart)
	// A nil req.Cancel or timerC never fires in the select.
	select {
	case e.admit <- struct{}{}:
		if e.met != nil {
			e.met.admitted.Inc()
		}
		return true, nil
	case <-req.Cancel:
		if e.met != nil {
			e.met.cancelled.Inc()
		}
		return false, context.Canceled
	case <-timerC:
		if e.met != nil {
			e.met.expired.Inc()
		}
		return false, nil
	}
}

// run executes one request on the pool against the generation sx: one run
// per shard prepared by shardRuns, then — for every run the preparation
// did not already complete — QueryWorkers insert units per run, the
// all-inserted barrier (awaited here, never inside a pool goroutine), and
// QueryWorkers drain units per run. The barrier spans the whole fan-out,
// so a shard finishing its tree pass early keeps its bound improvements
// visible to the shards still traversing. The first failure — a unit
// panic, recovered where it happened — fails this query alone; the
// remaining phases are skipped, since the answer is discarded anyway.
func (e *Engine) run(sx *shard.Index, req core.Request, seeds []core.Match) (core.Result, error) {
	q, err := sx.NewQuery(req, seeds)
	if err != nil {
		return core.Result{}, err
	}
	if sx.NumShards() > 1 {
		e.met.recordFanout()
	}
	rec := &panicBox{}
	runs, sts := e.shardRuns(sx, q, rec)
	if rec.load() == nil {
		e.dispatchAll(runs, (*core.SearchRun).InsertPhase, rec)
	}
	if rec.load() == nil {
		e.dispatchAll(runs, (*core.SearchRun).DrainPhase, rec)
	}
	if err := rec.load(); err != nil {
		// Any of the fanned-out states may be the one a panicking unit
		// left inconsistent; drop them all rather than returning them to
		// the pool (sync.Pool refills on demand).
		return core.Result{}, err
	}
	for _, st := range sts {
		e.states.Put(st)
	}
	return q.Result(), nil
}

// shardRuns prepares one run per non-empty shard, borrowing a QueryState
// for each, and returns the runs that still have phases to execute plus
// every borrowed state. Preparation — the query's PAA/table build plus the
// bound-seeding approximate search — is fanned out over the pool, so a
// query's setup latency does not grow linearly with S; the caller takes
// the last shard itself instead of idling at the barrier, which for a
// generation of one shard means no pool hop at all. Approximate answers
// landing in the shared collector concurrently tighten each other exactly
// as the drain phases do.
func (e *Engine) shardRuns(sx *shard.Index, q *shard.Query, rec *panicBox) ([]*core.SearchRun, []*core.QueryState) {
	S := sx.NumShards()
	last := -1
	for s := 0; s < S; s++ {
		if sx.Shard(s) != nil {
			last = s
		}
	}
	opt := core.SearchOptions{Workers: e.opts.QueryWorkers, Queues: e.opts.Queues}
	runs := make([]*core.SearchRun, S)
	sts := make([]*core.QueryState, 0, S)
	var wg sync.WaitGroup
	for s := 0; s <= last; s++ {
		if sx.Shard(s) == nil {
			continue
		}
		st := e.states.Get().(*core.QueryState)
		sts = append(sts, st)
		wg.Add(1)
		prepare := func(int) {
			defer wg.Done()
			defer e.recoverInto(rec)
			run, err := q.NewRun(s, st, opt)
			if err != nil {
				rec.note(err)
				return
			}
			runs[s] = run
		}
		if s < last {
			e.tasks <- prepare
		} else {
			prepare(0)
		}
	}
	wg.Wait()

	pending := runs[:0]
	for _, run := range runs {
		if run != nil && !run.Done() {
			pending = append(pending, run)
		}
	}
	return pending, sts
}

// dispatchAll enqueues QueryWorkers units of phase for every run and
// waits for all of them. A panic in a unit is recovered on the pool
// worker (before its wg.Done fires, so the barrier never deadlocks) and
// recorded.
func (e *Engine) dispatchAll(runs []*core.SearchRun, phase func(*core.SearchRun, int), rec *panicBox) {
	var wg sync.WaitGroup
	wg.Add(len(runs) * e.opts.QueryWorkers)
	for _, run := range runs {
		for i := 0; i < e.opts.QueryWorkers; i++ {
			e.tasks <- func(pid int) {
				defer wg.Done()
				defer e.recoverInto(rec)
				if err := fpUnit.Hit(); err != nil {
					rec.note(err)
					return
				}
				phase(run, pid)
			}
		}
	}
	wg.Wait()
}

// recoverInto, deferred by every unit of query work, turns a panic into the
// query's recorded failure.
func (e *Engine) recoverInto(rec *panicBox) {
	if r := recover(); r != nil {
		rec.note(e.panicErr(r))
	}
}
