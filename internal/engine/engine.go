package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// ErrClosed is returned by queries submitted after Close.
var ErrClosed = errors.New("engine: closed")

// ErrQueryPanicked is returned (wrapped) by a query whose execution
// panicked in one of its units of work. The panic is confined to that one
// query: the unit recovers on the goroutine where it ran, the stack goes
// to slog and the messi_query_panics_total counter, and the engine keeps
// serving every other query.
var ErrQueryPanicked = errors.New("engine: query panicked")

// fpUnit fires inside a query work unit, where the worker-panic tests
// inject a poisoned unit to prove one bad query fails alone.
var fpUnit = fault.Register("engine.unit")

// Options configures an Engine. Zero fields inherit from the options of
// the indexes it will search (which themselves default to the paper's
// values).
type Options struct {
	// PoolWorkers is the engine's worker budget — Ns of Algorithm 6 — and
	// its admission gate's worker tokens. A narrow query, whose runs all
	// keep the tree with little to search (core.SearchRun.Narrow), waits
	// for one token per run and borrows the others while no query waits,
	// one helper worker per token, each given back at its next queue pop
	// once a query does wait; any other query waits for all of them. No
	// goroutine outlives a query; each query starts its own workers.
	// Default: the index's SearchWorkers.
	PoolWorkers int
	// Queues is the number of priority queues per query (Nq). Default:
	// the index's QueueCount.
	Queues int
	// DegradeEpsilon, when positive, makes the admission gate trade
	// answer quality for latency under overload: an exact Do request
	// arriving while no worker token is free is degraded to an ε-bounded
	// one with this ε instead of paying full queueing plus full
	// exact-search latency. Requests that ask for a specific mode
	// (approximate, ε, deadline) are never rewritten, and the result
	// honestly reports Exact=false plus the ε actually proven. Zero (the
	// default) never degrades.
	DegradeEpsilon float64
	// Metrics, when non-nil, receives the engine's serving telemetry:
	// admission-gate pressure (queue depth, wait time, admitted/degraded/
	// deadline-expired/cancelled counts), per-mode latency histograms,
	// answer exactness outcomes, and cumulative pruning counters. Nil
	// (the default) disables every measurement — the hot path pays a
	// single nil check, preserving benchmark numbers.
	Metrics *metrics.Registry
}

func (o Options) withDefaults(ixOpts core.Options) Options {
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = ixOpts.SearchWorkers
	}
	if o.Queues <= 0 {
		o.Queues = ixOpts.QueueCount
	}
	return o
}

// Engine is a persistent query engine: the admission gate and the
// per-query scratch that every query of one index — whatever generation
// of it — runs through. It owns no index: each Do names the View to
// search, so a caller that rebuilds its index publishes the new generation
// in one place (its own view pointer), and a query runs from start to
// finish against the view it was handed. It holds no goroutine between
// queries. It is safe for concurrent use by multiple goroutines.
type Engine struct {
	opts   Options
	met    *engMetrics // nil when Options.Metrics is nil
	gate   *gate       // nil without a gate (NewUngated)
	states sync.Pool

	mu     sync.RWMutex // guards closed vs. in-flight queries
	closed bool
}

// New returns an engine for indexes built with ixOpts, which (after their
// own defaults) supply the defaults of opts' zero fields: NewUngated's
// engine behind an admission gate of PoolWorkers worker tokens.
func New(ixOpts core.Options, opts Options) *Engine {
	e := NewUngated(ixOpts, opts)
	e.gate = &gate{free: e.opts.PoolWorkers}
	return e
}

// NewUngated returns an engine with no admission gate: every query is
// admitted at once and runs on PoolWorkers workers, with no helpers.
// Validation, execution, panic isolation and the scratch pool are New's.
func NewUngated(ixOpts core.Options, opts Options) *Engine {
	opts = opts.withDefaults(core.FillDefaults(ixOpts))
	e := &Engine{opts: opts, met: newEngMetrics(opts.Metrics, opts)}
	e.states.New = func() any { return core.NewQueryState() }
	return e
}

// panicErr converts a recovered panic value into an ErrQueryPanicked
// error. The stack is captured to slog and the panic counted in
// messi_query_panics_total; the returned error carries only the panic
// value, so API consumers see a clean sentinel.
func (e *Engine) panicErr(r any) error {
	if e.met != nil {
		e.met.panics.Inc()
	}
	level := slog.LevelError
	if fault.IsInjectedPanic(r) {
		level = slog.LevelInfo // chaos tests inject these on purpose
	}
	slog.Default().Log(context.Background(), level, "query worker panicked",
		"panic", fmt.Sprint(r),
		"stack", string(debug.Stack()))
	// panic(err) keeps its chain matchable through the sentinel.
	if perr, ok := r.(error); ok {
		return fmt.Errorf("%w: %w", ErrQueryPanicked, perr)
	}
	return fmt.Errorf("%w: %v", ErrQueryPanicked, r)
}

// panicBox collects the first failure of one query's work units.
type panicBox struct {
	mu  sync.Mutex
	err error
}

func (b *panicBox) note(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *panicBox) load() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Close waits for in-flight queries to finish. Queries submitted after
// Close return ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}
