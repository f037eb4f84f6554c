package shard

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/series"
)

// Query is the state one request shares across the members of its fan-out:
// the collector, holding global positions, and the QoS state. Both the
// spawn-mode Do below and the pooled engine build their runs through it.
type Query struct {
	x    *Index
	req  core.Request
	coll core.Collector
	qos  *core.QoS
}

// NewQuery readies the shared state of one request, which must have passed
// Validate and CheckShape. x is nil when the fan-out has no shard to run on
// — a live index before its first generation, searched through Scan alone.
func NewQuery(x *Index, req core.Request) *Query {
	return &Query{x: x, req: req, coll: core.NewCollector(req.K), qos: req.NewQoS()}
}

// NewRun prepares the query's run on shard s (which must be non-empty),
// threading the shared state and the shard's position mapping through
// opt; the caller chooses the worker shape.
func (q *Query) NewRun(s int, st *core.QueryState, opt core.SearchOptions) (*core.SearchRun, error) {
	opt.Shared, opt.QoS = q.coll, q.qos
	if S := len(q.x.shards); S > 1 { // one shard: local positions are global
		opt.GlobalPos = globalPos(s, S)
	}
	return q.x.shards[s].NewRun(q.req, st, opt)
}

// Scan executes one more member of the fan-out: a contiguous chunk of
// series no shard holds yet (a live index's delta), whose first series has
// global position start. It is measured exactly, in position order, into
// the shared collector: what it finds prunes every shard's run and the
// other way round, and a series a shard also holds is counted once.
func (q *Query) Scan(chunk *series.Collection, start int) {
	core.Scan(q.req, chunk, int64(start), q.coll)
}

// Result is the fused answer. Call it once every member has finished.
func (q *Query) Result() core.Result {
	return q.qos.Finish(q.coll.Matches(), q.req.Mode)
}

// Do serves one request in the paper's per-query spawn mode: one run per
// non-empty shard, each with its own worker goroutines, all fanning into
// one shared collector and one QoS state — so a bound found in one shard
// prunes all the others, and ε-pruning witnesses and stop checks act
// globally. An unsharded index is a fan-out of one. The worker budget is
// divided across the shards, so the fan-out spawns the same total
// parallelism as one unsharded search. Matches carry global positions and
// squared distances.
func (x *Index) Do(req core.Request, opt core.SearchOptions) (core.Result, error) {
	if err := req.Validate(); err != nil {
		return core.Result{}, err
	}
	if err := req.CheckShape(x.length); err != nil {
		return core.Result{}, err
	}
	q := NewQuery(x, req)
	if opt.Workers <= 0 {
		opt.Workers = x.opts.SearchWorkers
	}
	S := len(x.shards)
	opt.Workers = (opt.Workers + S - 1) / S

	errs := make([]error, S)
	var wg sync.WaitGroup
	for s, sh := range x.shards {
		if sh == nil {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			run, err := q.NewRun(s, nil, opt)
			if err != nil {
				errs[s] = fmt.Errorf("shard: shard %d: %w", s, err)
				return
			}
			run.Run()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return core.Result{}, err
		}
	}
	return q.Result(), nil
}
