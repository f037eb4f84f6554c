package engine

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/shard"
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
// rejected without queueing; then the overload-degradation policy
// (Options.DegradeEpsilon), when the engine has a gate; then preparation,
// admission at the width the prepared plans need, and execution, whatever
// the distance, answer shape or mode.
func (e *Engine) Do(v View, req core.Request) (core.Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return core.Result{}, ErrClosed
	}
	if err := v.check(req); err != nil {
		return core.Result{}, err
	}

	var start time.Time
	if e.met != nil {
		start = time.Now()
	}

	// Overload degradation: with no worker free, an exact request would pay
	// queueing latency on top of exact-search latency. When the engine is
	// configured to degrade, rewrite it to an ε-bounded request instead —
	// it still waits for admission, but runs far cheaper once admitted,
	// and the result honestly reports what was proven. Requests that chose
	// their mode explicitly are never rewritten.
	if req.Mode == core.ModeExact && e.opts.DegradeEpsilon > 0 && e.gate != nil && e.gate.exhausted() {
		req.Mode = core.ModeEpsilon
		req.Epsilon = e.opts.DegradeEpsilon
		if e.met != nil {
			e.met.degraded.Inc()
		}
	}
	mode := req.Mode

	res, err := e.run(v, req)
	if err != nil {
		return core.Result{}, err
	}
	if e.met != nil {
		e.met.recordOutcome(mode, time.Since(start), res.Exact)
		e.met.recordTally(res.Tally)
	}
	return res, nil
}

// admit waits at the gate, if the engine has one, for a query's tokens,
// honoring the request's cancellation signal and, in ModeDeadline, its
// deadline. It reports whether it holds them (false only when the deadline
// passed while it waited); cancellation is an error, matching context
// semantics. A query that needs no token is admitted at once.
func (e *Engine) admit(tokens int, req core.Request) (bool, error) {
	if e.gate == nil {
		return true, nil
	}
	waitStart := e.met.waitStart()
	ok, err := e.gate.acquire(tokens, req)
	e.met.waitEnd(waitStart, ok, err)
	return ok, err
}

// run executes one request against the view: every member of the fan-out
// — one run per shard, one scan per delta chunk — is prepared by prepare,
// into one shared collector and one QoS state, before the gate; then the
// query is admitted at the width its pending runs' plans ask for — one
// token per run when every run is narrow, every token otherwise, none
// without a pending run — and the runs go through their phases (execute).
// One whose deadline passes at the gate answers with what preparation
// found, flagged inexact. The collector's contents are the fused answer,
// in global positions. The first failure — a unit panic, recovered where
// it happened — fails this query alone; no drain starts after it, since
// the answer is discarded anyway.
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
	tokens, narrow := e.opts.PoolWorkers, e.gate != nil
	for _, run := range runs {
		narrow = narrow && run.Narrow()
	}
	if narrow {
		tokens = min(len(runs), tokens)
	}
	admitted, err := e.admit(tokens, req)
	if err != nil {
		return core.Result{}, err // its states are left to the garbage collector
	}
	if !admitted {
		opt.QoS.Expire()
	} else if len(runs) > 0 {
		e.execute(runs, tokens, narrow, rec)
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
// work: per shard, the run's preparation on a borrowed QueryState — the
// query's PAA/table build plus the bound-seeding approximate search — and
// per delta chunk its whole exact scan, which has no later stage. It
// returns the runs that still have phases to execute (none once a member
// has failed) plus every borrowed state. Fanned out, a query's setup
// latency does not grow linearly with the member count; the shards go
// first, since an approximate answer is cheap and lets the chunk scans
// abandon early; and the caller takes the last member itself instead of
// idling at the barrier, which for a static view of one shard means no hop
// at all. Everything lands in the shared collector concurrently, each
// member tightening the others exactly as the drain phases do.
func (e *Engine) prepare(v View, req core.Request, opt core.SearchOptions, rec *panicBox) ([]*core.SearchRun, []*core.QueryState) {
	S := v.shards()
	runs := make([]*core.SearchRun, S)
	sts := make([]*core.QueryState, S)
	members := S + len(v.Delta)
	var wg sync.WaitGroup
	wg.Add(members)
	for i := 0; i < members; i++ {
		if i < S {
			sts[i] = e.states.Get().(*core.QueryState)
		}
		member := func() {
			e.unit(rec, func() {
				o := opt
				if i < S {
					o.Start = int64(v.Base.Start(i))
					runs[i] = v.Base.Shard(i).NewRun(req, sts[i], o)
				} else {
					chunk := v.Delta[i-S]
					o.Start = int64(chunk.Start)
					core.Scan(req, chunk.Data, o)
				}
			})
			wg.Done()
		}
		if i < members-1 {
			go member()
		} else {
			member()
		}
	}
	wg.Wait()
	if rec.load() != nil {
		return nil, sts // a failed member's run was never made
	}

	pending := runs[:0]
	for _, run := range runs {
		if !run.Done() {
			pending = append(pending, run)
		}
	}
	return pending, sts
}

// execute is Algorithm 6, per pending run, on the workers the query's
// tokens pay for: a wide query's split evenly across its runs,
// ⌈tokens/len(runs)⌉ each; a narrow query's one per run, plus one helper
// per token it can borrow, dealt to the runs in turn. A run that finishes
// its tree pass early drains while the others still traverse, so the
// bounds it finds prune their traversals. It returns the query's tokens to
// the gate.
func (e *Engine) execute(runs []*core.SearchRun, tokens int, narrow bool, rec *panicBox) {
	per, helpers := (tokens+len(runs)-1)/len(runs), 0
	if narrow {
		per, helpers = 1, e.gate.borrow(e.opts.PoolWorkers-tokens)
	}
	var done sync.WaitGroup
	for i, run := range runs {
		n := per + (helpers-i+len(runs)-1)/len(runs) // its share of the helpers
		done.Add(n)
		inserted := new(sync.WaitGroup)
		inserted.Add(n)
		for pid := 0; pid < n; pid++ {
			go e.work(run, pid, pid >= per, inserted, &done, rec)
		}
	}
	done.Wait()
	if e.gate != nil {
		e.gate.release(tokens)
	}
}

// work is one worker of a run: its insert unit, the run's all-inserted
// barrier, then its drain unit, skipped once the query has failed since
// the answer is discarded anyway. A helper drains only until a query
// waits at the gate, then gives its token back; the run's own workers
// drain to the end. unit recovers every panic, so each worker always
// reaches its barrier, its release and its done signal.
func (e *Engine) work(run *core.SearchRun, pid int, helper bool, inserted, done *sync.WaitGroup, rec *panicBox) {
	e.unit(rec, func() { run.InsertPhase(pid) })
	inserted.Done()
	inserted.Wait()
	if rec.load() == nil {
		var leave func() bool
		if helper {
			leave = e.gate.waiting
		}
		e.unit(rec, func() { run.DrainPhase(pid, leave) })
	}
	if helper {
		e.gate.release(1)
	}
	done.Done()
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
