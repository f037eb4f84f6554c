package messi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/engine"
	"repro/internal/series"
	"repro/internal/stats"
)

// This file is the unified query API: one SearchRequest served by one Do
// method on Index, LiveIndex, and Engine, covering the whole quality
// spectrum — exact, approximate, ε-bounded, and deadline-bounded answers —
// under every distance (Euclidean and constrained DTW) and answer shape
// (1-NN and k-NN). It is the only query method (Engine.QueryBatch is a
// loop over it), named Do as in http.Client.Do.

// Typed sentinel errors shared by every query layer, matchable with
// errors.Is across Index, LiveIndex, Engine, and the HTTP handlers.
var (
	// ErrBadK reports a negative K in a request, or K > 1 under DTW.
	ErrBadK = core.ErrBadK
	// ErrBadWindow reports a DTW window fraction outside [0,1].
	ErrBadWindow = core.ErrBadWindow
	// ErrWrongLength reports a query whose length does not match the
	// indexed series length.
	ErrWrongLength = core.ErrWrongLength
	// ErrBadEpsilon reports a negative or non-finite Epsilon.
	ErrBadEpsilon = core.ErrBadEpsilon
	// ErrNonFinite reports a query, or a series appended to a LiveIndex,
	// that holds a NaN or an infinity.
	ErrNonFinite = core.ErrNonFinite
	// ErrBadDeadline reports a negative Deadline: a spent budget is not
	// "no budget", which is zero.
	ErrBadDeadline = errors.New("messi: deadline must be non-negative")
	// ErrQueryPanicked reports a query that panicked, on any frontend's
	// Do. The panic is recovered in the unit of work where it happened,
	// fails only the offending query, and leaves the index (and its pool,
	// if any) serving; the wrapped error carries the panic value and the
	// stack is logged via slog.
	ErrQueryPanicked = engine.ErrQueryPanicked
)

// Mode selects the quality-of-service level of a query: how much answer
// quality the caller is willing to trade for latency.
type Mode int

const (
	// ModeExact (the zero value) runs the search to completion; the
	// answer is provably the nearest neighbor (or exact top-k).
	ModeExact = Mode(core.ModeExact)
	// ModeApprox runs only the BSF-seeding step of the exact algorithm —
	// the leaf matching the query's iSAX summary. Much cheaper; the
	// distance is always an upper bound on the exact one, and on real
	// data frequently equals it.
	ModeApprox = Mode(core.ModeApprox)
	// ModeEpsilon runs the exact algorithm with pruning bounds inflated
	// by (1+ε)², terminating as soon as the answer is provably within
	// (1+ε) of optimal. Epsilon = 0 is identical to ModeExact.
	ModeEpsilon = Mode(core.ModeEpsilon)
	// ModeDeadline runs the exact algorithm but stops at its next claim
	// of work — a root subtree, a 1 024-series scan block or a queue pop —
	// once the request's Deadline (or the context's) passes, returning the
	// best answer found so far flagged Exact=false. With no deadline at
	// all it is identical to ModeExact.
	ModeDeadline = Mode(core.ModeDeadline)
)

// String returns the wire name of the mode ("exact", "approx", "epsilon",
// "deadline").
func (m Mode) String() string { return core.Mode(m).String() }

// ParseMode parses a wire-format mode name. The empty string is ModeExact;
// "approximate" is accepted for ModeApprox.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "approx", "approximate":
		return ModeApprox, nil
	case "epsilon":
		return ModeEpsilon, nil
	case "deadline":
		return ModeDeadline, nil
	default:
		return 0, fmt.Errorf("messi: unknown search mode %q", s)
	}
}

// SearchRequest describes one similarity query for Do. The zero value of
// every optional field means its default: K=0 is 1-NN, DTW=false is
// Euclidean distance, Mode's zero value is ModeExact.
type SearchRequest struct {
	// Query is the query series; its length must match the index's.
	Query []float32
	// K is the number of nearest neighbors (0 and 1 both mean 1-NN).
	// K > 1 with DTW is not supported.
	K int
	// DTW selects constrained Dynamic Time Warping with a Sakoe-Chiba
	// band of Window (a fraction of the series length in [0,1]; 0.1 is
	// the paper's 10% window). False means Euclidean distance.
	DTW    bool
	Window float64
	// Mode is the quality-of-service level. Epsilon applies in
	// ModeEpsilon; Deadline applies in ModeDeadline.
	Mode    Mode
	Epsilon float64
	// Deadline is the query's latency budget, measured from the Do call.
	// Zero means no budget (the context's deadline, if any, still
	// applies in ModeDeadline); a negative one fails with ErrBadDeadline.
	Deadline time.Duration
	// Counters, when true, collects per-query operation counts into
	// Result.Counters (a small amount of atomic-counter overhead).
	Counters bool
	// Trace, when true, collects a full per-query execution trace into
	// Result.Trace: the per-phase wall-time breakdown of Figure 13
	// accumulated across every worker of the query, the operation
	// counts of QueryCounters, and the query's wall-clock latency.
	// Costs two clock reads per worker phase transition plus the
	// Counters overhead; off (the default) costs nothing.
	Trace bool
}

// QueryCounters are per-query operation counts (see SearchRequest.Counters).
type QueryCounters struct {
	NodesVisited   int64 // index tree nodes considered
	LowerBounds    int64 // summary lower-bound computations
	RealDistances  int64 // full distance computations
	LeavesInserted int64 // leaves pushed into priority queues
	LeavesPruned   int64 // queue abandonments on a popped minimum
	BSFUpdates     int64 // improvements to the pruning bound
	ScanPlans      int64 // shard runs that scanned in position order: their bounds were predicted not to prune
}

// TracePhase is one phase timing in a query trace, labeled with the
// paper's Figure 13 phase name.
type TracePhase struct {
	Name     string
	Duration time.Duration
}

// Trace is a per-query execution trace (see SearchRequest.Trace).
type Trace struct {
	// Phases holds the accumulated wall time of each Figure 13 phase in
	// phase order. Phases run concurrently on many workers, so these are
	// worker-seconds: their sum can exceed Elapsed.
	Phases []TracePhase
	// Elapsed is the query's wall-clock latency as observed by Do,
	// including admission-gate waiting on an Engine.
	Elapsed time.Duration
	// Counters are the query's operation counts (always collected when
	// tracing, regardless of SearchRequest.Counters).
	Counters QueryCounters
}

// Result is one Do answer.
type Result struct {
	// Matches holds up to K matches in ascending distance order, with
	// true (non-squared) distances like every Match in this package.
	Matches []Match
	// Exact reports whether the answer is provably exact. Approximate
	// answers and truncated deadline answers report false; ε-bounded
	// answers report true when the search happened to prove exactness
	// (common on real data) and false otherwise.
	Exact bool
	// EpsilonBound is the relative error bound actually proven: the
	// reported distance is within (1+EpsilonBound)× the optimal one. It
	// is 0 when Exact, at most the requested Epsilon for ModeEpsilon
	// answers, and +Inf when nothing was proven (ModeApprox, or a
	// deadline/cancellation truncation).
	EpsilonBound float64
	// Counters holds per-query operation counts when the request asked
	// for them, nil otherwise.
	Counters *QueryCounters
	// Trace holds the execution trace when the request asked for one,
	// nil otherwise.
	Trace *Trace
}

// Best returns the first (nearest) match, or a zero Match with
// Position -1 when the result is empty.
func (r Result) Best() Match {
	if len(r.Matches) == 0 {
		return Match{Position: -1}
	}
	return r.Matches[0]
}

// collectors carries the per-query measurement state do attaches to a
// request, so publicResult can roll it into the Result.
type collectors struct {
	ctrs         *stats.Counters  // non-nil when counting or tracing
	wantCounters bool             // fill Result.Counters
	bd           *stats.Breakdown // non-nil when tracing
	start        time.Time        // Do entry time when tracing
}

// do is the one request path under every frontend's Do: it checks the
// deadline budget and the window fraction, converts the window to points, applies z-normalization when
// the index uses it, resolves the effective absolute deadline from the
// request budget and the context, attaches the counter/trace collectors
// the request asked for, hands the core request to the backend's own Do —
// which validates it — and converts the answer to the public shape.
func do(ctx context.Context, req SearchRequest, seriesLen int, normalize bool,
	backend func(core.Request) (core.Result, error)) (Result, error) {

	window := 0
	if req.DTW {
		// dtw.WindowSize clamps silently; an out-of-range fraction is
		// always a caller bug, so reject it instead.
		if math.IsNaN(req.Window) || req.Window < 0 || req.Window > 1 {
			return Result{}, fmt.Errorf("%w: fraction %v outside [0,1]", ErrBadWindow, req.Window)
		}
		window = dtw.WindowSize(seriesLen, req.Window)
	}
	if req.Deadline < 0 {
		return Result{}, fmt.Errorf("%w, got %v", ErrBadDeadline, req.Deadline)
	}
	query := req.Query
	if normalize {
		query = series.ZNormalized(query)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var deadline time.Time
	if req.Mode == ModeDeadline {
		if req.Deadline > 0 {
			deadline = time.Now().Add(req.Deadline)
		}
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	col := collectors{wantCounters: req.Counters}
	if req.Counters || req.Trace {
		col.ctrs = &stats.Counters{}
	}
	if req.Trace {
		col.bd = &stats.Breakdown{}
		col.start = time.Now()
	}
	res, err := backend(core.Request{
		Query:     query,
		K:         req.K,
		DTW:       req.DTW,
		Window:    window,
		Mode:      core.Mode(req.Mode),
		Epsilon:   req.Epsilon,
		Deadline:  deadline,
		Cancel:    ctx.Done(),
		Counters:  col.ctrs,
		Breakdown: col.bd,
	})
	if err != nil {
		return Result{}, err
	}
	return publicResult(res, col), nil
}

// publicResult converts a core result (squared distances) into the public
// shape (true distances, counters snapshot, trace).
func publicResult(res core.Result, col collectors) Result {
	out := Result{
		Matches:      make([]Match, 0, len(res.Matches)),
		Exact:        res.Exact,
		EpsilonBound: res.EpsilonBound,
	}
	for _, m := range res.Matches {
		out.Matches = append(out.Matches, Match{Position: m.Position, Distance: math.Sqrt(m.Dist)})
	}
	var qc QueryCounters
	if col.ctrs != nil {
		s := col.ctrs.Snapshot()
		qc = QueryCounters{
			NodesVisited:   s.NodesVisited,
			LowerBounds:    s.LowerBoundCalcs,
			RealDistances:  s.RealDistCalcs,
			LeavesInserted: s.LeavesInserted,
			LeavesPruned:   s.LeavesPruned,
			BSFUpdates:     s.BSFUpdates,
			ScanPlans:      s.ScanPlans,
		}
		if col.wantCounters {
			c := qc
			out.Counters = &c
		}
	}
	if col.bd != nil {
		tr := &Trace{
			Phases:   make([]TracePhase, 0, int(stats.NumPhases)),
			Elapsed:  time.Since(col.start),
			Counters: qc,
		}
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			tr.Phases = append(tr.Phases, TracePhase{Name: p.String(), Duration: col.bd.Get(p)})
		}
		out.Trace = tr
	}
	return out
}

// Do serves one query on the index across the whole quality spectrum,
// through the same engine as Engine.Do and LiveIndex.Do but without a pool
// or an admission gate: each unit of the query's work runs on a goroutine
// started for it, SearchWorkers of them per phase across all shards. A
// context cancellation stops the search at its next claim of work — a root
// subtree, a scan block or a queue pop — and returns the best answer so
// far flagged Exact=false. A query that panics fails alone with
// ErrQueryPanicked.
func (ix *Index) Do(ctx context.Context, req SearchRequest) (Result, error) {
	return do(ctx, req, ix.inner.SeriesLen(), ix.normalize, func(creq core.Request) (core.Result, error) {
		return ix.eng.Do(engine.View{Base: ix.inner}, creq)
	})
}

// Do serves one query over the union of the immutable generation and the
// delta buffer (see Index.Do), on the embedded engine's pool and under its
// admission gate. The delta is always answered exactly; the quality mode
// governs the tree search beside it.
func (ix *LiveIndex) Do(ctx context.Context, req SearchRequest) (Result, error) {
	return do(ctx, req, ix.inner.SeriesLen(), ix.normalize, ix.inner.Do)
}

// Do serves one query through the persistent engine: the pool answers it
// under the admission gate, and with EngineOptions.DegradeEpsilon set an
// exact request arriving under overload is degraded to an ε-bounded one
// instead of paying queueing latency (the Result reports what was actually
// proven). A query that panics fails alone with ErrQueryPanicked.
func (e *Engine) Do(ctx context.Context, req SearchRequest) (Result, error) {
	return do(ctx, req, e.ix.SeriesLen(), e.ix.normalize, func(creq core.Request) (core.Result, error) {
		return e.inner.Do(engine.View{Base: e.ix.inner}, creq)
	})
}
