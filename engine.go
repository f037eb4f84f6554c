package messi

import (
	"context"

	"repro/internal/engine"
)

// EngineOptions configures a persistent query Engine. Zero fields inherit
// from the index options.
type EngineOptions struct {
	// PoolWorkers is the number of long-lived worker goroutines shared by
	// all queries. Default: the index's SearchWorkers.
	PoolWorkers int
	// QueryWorkers is the per-query parallelism: how many pool work units
	// each query dispatches per phase, in total across its shards.
	// Default: PoolWorkers.
	QueryWorkers int
	// Queues is the number of priority queues per query. Default: the
	// index's QueueCount.
	Queues int
	// MaxConcurrent bounds how many queries execute concurrently; further
	// queries wait for admission. Default: PoolWorkers/QueryWorkers
	// (at least 1).
	MaxConcurrent int
	// DegradeEpsilon, when positive, is the overload policy of the
	// admission gate: an exact-mode Do request arriving while
	// MaxConcurrent queries are already executing is served as an
	// ε-bounded query with this ε instead of stacking queueing latency
	// on top of exact-search latency. Requests that chose their mode
	// explicitly are never rewritten, and the Result reports the bound
	// actually proven. Zero (the default) never degrades.
	DegradeEpsilon float64
	// Metrics, when non-nil, receives the engine's serving telemetry:
	// admission-gate pressure (queue depth, wait time, admitted/degraded/
	// deadline-expired/cancelled counts), per-mode latency histograms,
	// answer exactness outcomes, and cumulative pruning counters. Nil
	// (the default) disables all measurement.
	Metrics *Metrics
}

// Engine is a persistent query engine over one Index: Index.Do's executor
// plus a long-lived worker pool, which amortizes goroutine starts across
// queries, and an admission gate, which runs many independent queries
// concurrently through the shared pool. Results are identical to
// Index.Do's. An Engine is safe for
// concurrent use; Close it when done.
//
//	eng := ix.NewEngine(nil)
//	defer eng.Close()
//	res, err := eng.Do(ctx, messi.SearchRequest{Query: q})
type Engine struct {
	ix    *Index
	inner *engine.Engine
}

// NewEngine starts a persistent query engine over the index. opts may be
// nil for the defaults.
func (ix *Index) NewEngine(opts *EngineOptions) *Engine {
	var o engine.Options
	if opts != nil {
		// The public struct mirrors the internal one field for field; the
		// conversion stops compiling if they drift apart.
		o = engine.Options(*opts)
	}
	engine.RegisterShards(o.Metrics, ix.inner.NumShards)
	return &Engine{ix: ix, inner: engine.New(ix.inner.Opts(), o)}
}

// Options returns the engine's effective (defaulted) options — the
// admission-gate configuration actually in force.
func (e *Engine) Options() EngineOptions { return EngineOptions(e.inner.Options()) }

// QueryBatch answers many independent exact 1-NN queries concurrently
// through the pool — a loop over Do that keeps the admission gate full;
// result i answers queries[i]. On error the returned slice is still
// full-length (failed entries are zero) and the first failing query's
// error is returned.
func (e *Engine) QueryBatch(queries [][]float32) ([]Match, error) {
	out := make([]Match, len(queries))
	err := engine.ForEach(len(queries), e.inner.Options().MaxConcurrent, func(i int) error {
		res, err := e.Do(context.Background(), SearchRequest{Query: queries[i]})
		if err == nil {
			out[i] = res.Best()
		}
		return err
	})
	return out, err
}

// Index returns the index this engine serves.
func (e *Engine) Index() *Index { return e.ix }

// Close waits for in-flight queries, then stops the worker pool. Queries
// submitted after Close fail. Close is idempotent.
func (e *Engine) Close() { e.inner.Close() }
