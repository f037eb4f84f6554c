package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/dtw"
	"repro/internal/stats"
)

// This file implements the quality-of-service query spectrum: one
// backend-independent Request/Result contract covering exact, approximate,
// ε-bounded, and deadline-bounded answers, and the QoS state threaded
// through every search worker (and, in a sharded fan-out, through every
// sibling shard run) that enforces it.
//
// The spectrum follows the paper's lineage: MESSI's approximate answer is
// the BSF-seeding step of the exact algorithm ("the approximate answer is
// frequently exact on real data"), and ParIS+ trades answer quality for
// latency under load. ε-bounded search generalizes both ends: pruning
// compares lower bounds inflated by (1+ε)² (squared-distance space)
// against the best-so-far, so a search terminates as soon as the priority
// queues' minima prove the BSF is within (1+ε) of optimal. Deadline-
// bounded search checks a clock (and the caller's cancellation signal) at
// every claim — a root subtree, a scan block or a queue pop — and returns
// the best-so-far flagged inexact.

// Typed sentinel errors for request validation, so API layers can
// errors.Is instead of string-matching.
var (
	// ErrBadK reports a negative K, or K > 1 under DTW.
	ErrBadK = errors.New("core: invalid k")
	// ErrBadWindow reports a DTW warping window outside its valid range.
	ErrBadWindow = errors.New("core: DTW window out of range")
	// ErrWrongLength reports a query whose length does not match the
	// indexed series length.
	ErrWrongLength = errors.New("core: query length does not match index series length")
	// ErrBadEpsilon reports a negative or non-finite ε tolerance.
	ErrBadEpsilon = errors.New("core: epsilon must be finite and non-negative")
	// ErrNonFinite reports a query or an appended series holding a NaN or
	// an infinity, to which no distance is defined.
	ErrNonFinite = errors.New("core: series value is not finite")
)

// Mode selects the quality-of-service level of one query.
type Mode int

const (
	// ModeExact runs the search to completion: the answer is provably
	// the nearest neighbor (or exact top-k).
	ModeExact Mode = iota
	// ModeApprox runs only the BSF-seeding step of the exact algorithm
	// (the leaf matching the query's iSAX summary). Much cheaper than
	// exact; its distance is always an upper bound on the exact one.
	ModeApprox
	// ModeEpsilon runs the exact algorithm with pruning bounds inflated
	// by (1+ε)², terminating once the answer is provably within (1+ε)
	// of optimal. ε = 0 is bitwise identical to ModeExact.
	ModeEpsilon
	// ModeDeadline runs the exact algorithm but checks the request
	// deadline (and cancellation) at every claim of work — a root
	// subtree, a 1 024-series scan block or a queue pop — returning the
	// best-so-far flagged inexact when time runs out. A zero
	// deadline never expires — equivalent to ModeExact.
	ModeDeadline
)

// String returns the wire name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	case ModeEpsilon:
		return "epsilon"
	case ModeDeadline:
		return "deadline"
	default:
		return "unknown"
	}
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m >= ModeExact && m <= ModeDeadline }

// Request is one backend-independent similarity query: the same contract
// is served by a single tree, a sharded fan-out, the persistent engine,
// and the live index (whose delta chunks join the fan-out).
type Request struct {
	Query []float32
	// K is the number of neighbors; 0 and 1 both mean 1-NN.
	K int
	// DTW selects constrained Dynamic Time Warping with a Sakoe-Chiba
	// band of Window points; false means Euclidean distance.
	DTW    bool
	Window int
	// Mode is the quality-of-service level; Epsilon and Deadline apply
	// in their respective modes.
	Mode    Mode
	Epsilon float64
	// Deadline is the absolute wall-clock budget of a ModeDeadline
	// request; the zero time means no deadline.
	Deadline time.Time
	// Cancel, when non-nil, aborts the search when closed (a
	// context.Context's Done channel); like a deadline expiry, the
	// best-so-far is returned flagged inexact.
	Cancel <-chan struct{}
	// Counters, when non-nil, accumulates operation counts.
	Counters *stats.Counters
	// Breakdown, when non-nil, accumulates per-phase wall time (Figure
	// 13) across every worker of the query — the per-query trace the
	// serving layer returns inline and logs for slow queries. Adds clock
	// reads to hot paths; leave nil when not tracing.
	Breakdown *stats.Breakdown
}

// Validate checks the request's own parameters: mode, ε, K, and the one
// unsupported combination (k-NN under DTW). CheckShape checks it against
// the indexed collection.
func (req Request) Validate() error {
	if !req.Mode.Valid() {
		return errors.New("core: unknown search mode")
	}
	if req.K < 0 {
		return fmt.Errorf("%w, got %d", ErrBadK, req.K)
	}
	if req.DTW && req.K > 1 {
		return fmt.Errorf("%w: k-NN under DTW is not supported (k=%d)", ErrBadK, req.K)
	}
	if req.Mode == ModeEpsilon &&
		(math.IsNaN(req.Epsilon) || math.IsInf(req.Epsilon, 0) || req.Epsilon < 0) {
		return ErrBadEpsilon
	}
	return nil
}

// CheckShape checks the request against the length of the indexed series:
// the query's length and values and, for DTW, the warping window.
func (req Request) CheckShape(seriesLen int) error {
	if len(req.Query) != seriesLen {
		return fmt.Errorf("%w: query length %d, index series length %d", ErrWrongLength, len(req.Query), seriesLen)
	}
	if err := CheckFinite(req.Query); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if req.DTW {
		if err := dtw.CheckWindow(seriesLen, req.Window); err != nil {
			return fmt.Errorf("%w: %w", ErrBadWindow, err)
		}
	}
	return nil
}

// CheckFinite reports the first NaN or infinity of s as an error wrapping
// ErrNonFinite. Every distance kernel relies on finite values.
func CheckFinite(s []float32) error {
	for i, v := range s {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: %v at point %d", ErrNonFinite, v, i)
		}
	}
	return nil
}

// NewQoS builds the per-query QoS state for the request. An exact request
// gets one too: its scale is 1, so it prunes exactly as plain search does,
// and it stops only on its cancellation signal.
func (req Request) NewQoS() *QoS {
	q := &QoS{scale: 1, mode: req.Mode, cancel: req.Cancel}
	switch req.Mode {
	case ModeEpsilon:
		q.scale = (1 + req.Epsilon) * (1 + req.Epsilon)
	case ModeDeadline:
		q.deadline = req.Deadline
	}
	q.epsPruned.Store(math.Float64bits(math.Inf(1)))
	return q
}

// Result is one backend-independent answer.
type Result struct {
	// Matches holds up to K answers in ascending distance order
	// (squared distances, like Match).
	Matches []Match
	// Exact reports whether the answer is provably exact: the search
	// ran to completion and no candidate was discarded under an
	// inflated ε bound that could have beaten it.
	Exact bool
	// EpsilonBound is the proven relative-error bound on true (non-
	// squared) distances: the answer is within (1+EpsilonBound) of
	// optimal. 0 when Exact; +Inf when nothing was proven (approximate
	// answers, deadline or cancellation truncation).
	EpsilonBound float64
}

// QoS is the quality-of-service state of one query, shared by all its
// workers and, in a sharded fan-out, by every sibling shard run (like the
// shared best-so-far). It decides every prune (prunes) and every stop
// (stop) of the search; all its methods are safe for concurrent use.
type QoS struct {
	scale    float64         // (1+ε)² lower-bound inflation; 1 = exact
	mode     Mode            // the request's mode, for Finish
	deadline time.Time       // zero = none
	cancel   <-chan struct{} // nil = none

	// epsPruned is a monotone min cell (IEEE-754 bits of a non-negative
	// float order like the float) recording the smallest squared lower
	// bound discarded only because of ε-inflation — the witness that
	// bounds how far the answer can be from optimal.
	epsPruned atomic.Uint64
	// stopped latches the first stop. Only a worker holding claimed work
	// asks, so it also means that work went unexplored.
	stopped atomic.Bool
}

// prunes reports whether a candidate, subtree or queue minimum whose
// squared lower bound is lb can be discarded against the pruning limit:
// lb inflated by (1+ε)² is no better. One discarded only because of the
// inflation is recorded as an answer-quality witness (at scale 1 no bound
// gets that far).
func (q *QoS) prunes(lb, limit float64) bool {
	if lb*q.scale < limit {
		return false
	}
	if lb < limit {
		q.witness(lb)
	}
	return true
}

// witness lowers the ε witness to lb. The smallest witness bounds the
// proven quality of the final answer.
func (q *QoS) witness(lb float64) {
	bits := math.Float64bits(lb)
	for {
		cur := q.epsPruned.Load()
		if bits >= cur || q.epsPruned.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// stop reports whether the worker asking should drop the work it has just
// claimed (a root subtree, a scan block or a popped leaf): the deadline
// passed or the request was cancelled. The answer is then no longer exact.
// Once it fires it stays latched, so the clock is read at most until the
// first expiry.
func (q *QoS) stop() bool {
	if q.stopped.Load() {
		return true
	}
	select {
	case <-q.cancel:
	default:
		if q.deadline.IsZero() || !time.Now().After(q.deadline) {
			return false
		}
	}
	q.stopped.Store(true)
	return true
}

// Finish derives the Result for the completed matches: inexact with no
// proven bound for an approximate or stopped run, else exact unless an ε
// witness lies below the worst match (the 1-NN distance, or the k-th best).
func (q *QoS) Finish(matches []Match) Result {
	res := Result{Matches: matches, Exact: true}
	if q.mode == ModeApprox || q.stopped.Load() {
		// Nothing proven: the answer is an upper bound only.
		res.Exact = false
		res.EpsilonBound = math.Inf(1)
		return res
	}
	worstSq := math.Inf(1)
	if len(matches) > 0 {
		worstSq = matches[len(matches)-1].Dist
	}
	witness := math.Float64frombits(q.epsPruned.Load())
	if worstSq <= witness {
		// Everything ε-pruned was at least as far as the answer: the
		// answer is exact after all (ε-search is frequently exact, the
		// same way the approximate answer is).
		return res
	}
	// Every pruned candidate's squared distance is ≥ witness, so the true
	// optimum is ≥ witness and the proven true-distance ratio is
	// sqrt(worst/witness).
	res.Exact = false
	res.EpsilonBound = math.Sqrt(worstSq/witness) - 1
	return res
}
