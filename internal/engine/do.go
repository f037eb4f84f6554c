package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/stats"
)

// View is what one query searches: an immutable index generation plus the
// series appended since. A static index is a view with an empty delta; a
// live index that has built nothing yet is one with no base.
type View struct {
	Base  *shard.Index // nil before the first generation exists
	Delta []Chunk      // contiguous, in position order
}

// Chunk is a contiguous run of delta series; Start is the global position
// of the first.
type Chunk struct {
	Data  *series.Collection
	Start int
}

// shards reports the generation's shard count, 0 when there is none.
func (v View) shards() int {
	if v.Base == nil {
		return 0
	}
	return v.Base.NumShards()
}

// check validates the request on its own, then against the length of the
// view's series; a view holding none cannot be searched.
func (v View) check(req core.Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	switch {
	case v.Base != nil:
		return req.CheckShape(v.Base.SeriesLen())
	case len(v.Delta) > 0:
		return req.CheckShape(v.Delta[0].Data.Length)
	}
	return core.ErrEmptyIndex
}

// Do serves one quality-of-service request over the view — the engine's
// only query method, and the one place a request is validated, admitted
// and executed: the request is checked first, so a malformed one is
// rejected without queueing; then the admission gate and the
// overload-degradation policy (Options.DegradeEpsilon), when the engine
// has a gate; then execution, whatever the distance, answer shape or mode.
func (e *Engine) Do(v View, req core.Request) (core.Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return core.Result{}, ErrClosed
	}
	if err := v.check(req); err != nil {
		return core.Result{}, err
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
	if req.Mode == core.ModeExact && e.opts.DegradeEpsilon > 0 && e.admit != nil && len(e.admit) == cap(e.admit) {
		req.Mode = core.ModeEpsilon
		req.Epsilon = e.opts.DegradeEpsilon
		if e.met != nil {
			e.met.degraded.Inc()
		}
	}
	mode := req.Mode

	if e.admit != nil {
		admitted, err := e.admitQoS(req)
		if err != nil {
			return core.Result{}, err
		}
		if admitted {
			defer func() { <-e.admit }()
		} else {
			// The deadline expired while waiting for admission. The
			// contract is best-so-far within the budget, so bypass the gate
			// for the cheap approximate step only (one leaf scan per shard
			// — bounded work even under overload) and report it as what it
			// is: an inexact answer.
			req.Mode = core.ModeApprox
		}
	}

	res, err := e.run(v, req)
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
	waitStart := e.met.waitStart()
	defer e.met.waitEnd(waitStart)
	// A free slot is taken before anything else is looked at: a select
	// picks at random among its ready cases, so a request cancelled or
	// expired before it arrived would otherwise be refused by an idle gate
	// half the time.
	select {
	case e.admit <- struct{}{}:
	default:
		var timerC <-chan time.Time
		if req.Mode == core.ModeDeadline && !req.Deadline.IsZero() {
			t := time.NewTimer(time.Until(req.Deadline))
			defer t.Stop()
			timerC = t.C
		}
		// A nil req.Cancel or timerC never fires in the select.
		select {
		case e.admit <- struct{}{}:
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
	if e.met != nil {
		e.met.admitted.Inc()
	}
	return true, nil
}

// run executes one request against the view: every member of the fan-out
// — one run per shard, one scan per delta chunk — is prepared by prepare,
// into one shared collector and one QoS state, then every run the
// preparation did not already complete goes through its phases (execute).
// The collector's contents are the fused answer, in global positions. The
// first failure — a unit panic, recovered where it happened — fails this
// query alone; the remaining phases are skipped, since the answer is
// discarded anyway.
func (e *Engine) run(v View, req core.Request) (core.Result, error) {
	if v.Base == nil {
		// Delta chunks are scanned exactly in every mode, so with nothing
		// else to search the answer is exact whatever was asked for.
		req.Mode = core.ModeExact
	}
	opt := core.SearchOptions{Queues: e.opts.Queues, Shared: core.NewCollector(req.K), QoS: req.NewQoS()}
	if e.met != nil && v.shards() > 1 {
		e.met.fanout.Inc()
	}
	rec := &panicBox{}
	runs, sts := e.prepare(v, req, opt, rec)
	if rec.load() == nil && len(runs) > 0 {
		e.execute(runs, rec)
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
	return opt.QoS.Finish(opt.Shared.Matches()), nil
}

// prepare runs the first stage of every member of the fan-out as units of
// work: per non-empty shard, the run's preparation on a borrowed
// QueryState — the query's PAA/table build plus the bound-seeding
// approximate search — and per delta chunk its whole exact scan, which has
// no later stage. It returns the runs that still have phases to execute
// plus every borrowed state. Fanned out, a query's setup latency does not
// grow linearly with the member count; the shards go first, since an
// approximate answer is cheap and lets the chunk scans abandon early; and
// the caller takes the last member itself instead of idling at the
// barrier, which for a static view of one shard means no hop at all.
// Everything lands in the shared collector concurrently, each member
// tightening the others exactly as the drain phases do.
func (e *Engine) prepare(v View, req core.Request, opt core.SearchOptions, rec *panicBox) ([]*core.SearchRun, []*core.QueryState) {
	S := v.shards()
	runs := make([]*core.SearchRun, S)
	sts := make([]*core.QueryState, 0, S)
	members := S + len(v.Delta) // an empty shard is a member with nothing to do
	var wg sync.WaitGroup
	wg.Add(members)
	for i := 0; i < members; i++ {
		var st *core.QueryState
		if i < S && v.Base.Shard(i) != nil {
			st = e.states.Get().(*core.QueryState)
			sts = append(sts, st)
		}
		member := func(int) {
			e.unit(rec, func() {
				if i >= S {
					chunk := v.Delta[i-S]
					core.Scan(req, chunk.Data, int64(chunk.Start), opt.Shared)
				} else if st != nil {
					o := opt
					o.Start = int64(v.Base.Start(i))
					run, err := v.Base.Shard(i).NewRun(req, st, o)
					if err != nil {
						rec.note(err)
						return
					}
					runs[i] = run
				}
			})
			wg.Done()
		}
		if i < members-1 {
			e.submit(member, i)
		} else {
			member(0)
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

// execute runs the phases of the pending runs: QueryWorkers insert units
// per query, split evenly across the runs (⌈QueryWorkers/len(runs)⌉ each),
// and for each run as many drain units once its last insert unit has
// returned — Algorithm 6's all-inserted barrier, per run, awaited here and
// never inside a pool goroutine. A run that finishes its tree pass early
// drains while the others still traverse, so the bounds it finds prune
// their traversals. After a failure no further drain starts.
func (e *Engine) execute(runs []*core.SearchRun, rec *panicBox) {
	per := (e.opts.QueryWorkers + len(runs) - 1) / len(runs)
	inserted := make(chan *core.SearchRun, len(runs))
	left := make([]atomic.Int32, len(runs)) // insert units still running, per run
	for r, run := range runs {
		n := &left[r]
		n.Store(int32(per))
		for i := 0; i < per; i++ {
			e.submit(func(pid int) {
				e.unit(rec, func() { run.InsertPhase(pid) })
				if n.Add(-1) == 0 {
					inserted <- run
				}
			}, i)
		}
	}
	var drained sync.WaitGroup
	for range runs {
		run := <-inserted
		if rec.load() != nil {
			continue
		}
		drained.Add(per)
		for i := 0; i < per; i++ {
			e.submit(func(pid int) {
				e.unit(rec, func() { run.DrainPhase(pid) })
				drained.Done()
			}, i)
		}
	}
	drained.Wait()
}

// unit executes one unit of query work — a member's preparation or one
// worker's share of a phase. A panic in it is recovered where it happens,
// so the unit always returns and its barrier never deadlocks, and becomes
// the query's recorded failure.
func (e *Engine) unit(rec *panicBox, work func()) {
	defer func() {
		if r := recover(); r != nil {
			rec.note(e.panicErr(r))
		}
	}()
	if err := fpUnit.Hit(); err != nil {
		rec.note(err)
		return
	}
	work()
}
