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
// query: the unit recovers, the stack goes to slog and the
// messi_query_panics_total counter, and the engine keeps serving every
// other query.
var ErrQueryPanicked = errors.New("engine: query panicked")

// fpUnit fires inside a dispatched query work unit, where the
// worker-panic tests inject a poisoned task to prove one bad query
// cannot take the pool down.
var fpUnit = fault.Register("engine.unit")

// Options configures an Engine. Zero fields inherit from the options of
// the indexes it will search (which themselves default to the paper's
// values).
type Options struct {
	// PoolWorkers is the number of long-lived worker goroutines shared
	// by all queries. Default: the index's SearchWorkers (Ns).
	PoolWorkers int
	// QueryWorkers is the number of work units each query dispatches per
	// phase in total, split evenly across its shards — the per-query
	// parallelism. Default: PoolWorkers (a lone query owns the whole
	// pool).
	QueryWorkers int
	// Queues is the number of priority queues per query (Nq). Default:
	// the index's QueueCount.
	Queues int
	// MaxConcurrent is the number of queries allowed to execute
	// concurrently; further queries wait for admission. Default:
	// max(1, PoolWorkers/QueryWorkers), the pool's saturation point.
	MaxConcurrent int
	// DegradeEpsilon, when positive, makes the admission gate trade
	// answer quality for latency under overload: an exact Do request
	// arriving while MaxConcurrent queries are already executing is
	// degraded to an ε-bounded one with this ε instead of paying full
	// queueing plus full exact-search latency. Requests that ask for a
	// specific mode (approximate, ε, deadline) are never rewritten, and
	// the result honestly reports Exact=false plus the ε actually
	// proven. Zero (the default) never degrades.
	DegradeEpsilon float64
	// Metrics, when non-nil, receives the engine's production telemetry:
	// admission-gate pressure, per-mode latency histograms, answer
	// exactness outcomes, and cumulative pruning counters. Nil (the
	// default) disables every measurement — the hot path pays a single
	// nil check, preserving benchmark numbers.
	Metrics *metrics.Registry
}

func (o Options) withDefaults(ixOpts core.Options) Options {
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = ixOpts.SearchWorkers
	}
	if o.QueryWorkers <= 0 || o.QueryWorkers > o.PoolWorkers {
		o.QueryWorkers = o.PoolWorkers
	}
	if o.Queues <= 0 {
		o.Queues = ixOpts.QueueCount
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = o.PoolWorkers / o.QueryWorkers
		if o.MaxConcurrent < 1 {
			o.MaxConcurrent = 1
		}
	}
	return o
}

// task is one unit of query work; pid is the index of the pool goroutine
// executing it, or, without a pool, the unit's index among its run's.
type task func(pid int)

// Engine is a persistent query engine: the worker pool, the admission gate
// and the per-query scratch that every query of one index — whatever
// generation of it — runs through. It owns no index: each Do names the View
// to search, so a caller that rebuilds its index publishes the new
// generation in one place (its own view pointer), and a query runs from
// start to finish against the view it was handed. It is safe for concurrent
// use by multiple goroutines. Close it when done to release the pool.
type Engine struct {
	opts   Options
	met    *engMetrics   // nil when Options.Metrics is nil
	tasks  chan task     // nil without a pool (NewUnpooled)
	admit  chan struct{} // nil without a gate (NewUnpooled)
	states sync.Pool
	wg     sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight queries
	closed bool
}

// New starts an engine for indexes built with ixOpts, which (after their own
// defaults) supply the defaults of opts' zero fields.
func New(ixOpts core.Options, opts Options) *Engine {
	e := NewUnpooled(ixOpts, opts)
	e.tasks = make(chan task, 4*e.opts.PoolWorkers)
	e.admit = make(chan struct{}, e.opts.MaxConcurrent)
	e.wg.Add(e.opts.PoolWorkers)
	for pid := 0; pid < e.opts.PoolWorkers; pid++ {
		go func(pid int) {
			defer e.wg.Done()
			for t := range e.tasks {
				e.runTask(t, pid)
			}
		}(pid)
	}
	return e
}

// NewUnpooled returns an engine with no pool and no admission gate: each
// unit of query work runs on a goroutine started for it, and every query
// is admitted at once. It holds no goroutine between queries, so an owner
// that is never closed — a static index — can keep one for its lifetime.
// Validation, execution, panic isolation and the scratch pool are New's.
func NewUnpooled(ixOpts core.Options, opts Options) *Engine {
	opts = opts.withDefaults(core.FillDefaults(ixOpts))
	e := &Engine{opts: opts, met: newEngMetrics(opts.Metrics, opts)}
	e.states.New = func() any { return core.NewQueryState() }
	return e
}

// submit starts one unit of query work: on the pool, or without one on a
// goroutine of its own, as unit pid.
func (e *Engine) submit(t task, pid int) {
	if e.tasks == nil {
		go t(pid)
		return
	}
	e.tasks <- t
}

// runTask executes one task with a backstop recover: every query task
// carries its own per-query recovery, so a panic reaching here means a
// task escaped it — log and count it rather than killing the process
// (a panicking worker goroutine would otherwise strand every query
// whose units it still owed).
func (e *Engine) runTask(t task, pid int) {
	defer func() {
		if r := recover(); r != nil {
			e.panicErr(r)
		}
	}()
	t(pid)
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

// Close waits for in-flight queries to finish, stops the pool, and
// releases its goroutines. Queries submitted after Close return
// ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	if e.tasks != nil {
		close(e.tasks)
	}
	e.mu.Unlock()
	e.wg.Wait()
}
