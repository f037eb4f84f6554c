// Package stats provides the instrumentation used to reproduce the paper's
// measurement figures — the Tally of a query's operation counts (Figure
// 17's lower-bound and real-distance calculation counts) and phase times
// (Figure 13's query-time breakdown) — and the atomic best-so-far (BSF)
// cell shared by all search workers.
package stats

import (
	"math"
	"sync/atomic"
	"time"
)

// Tally is the work of one query, or of one worker's share of it: the
// operation counts and, when the query is traced, the wall time per phase.
// It is a plain value. Each worker counts into a tally of its own and adds
// it to the query's total once per unit of work, so counting shares
// nothing between workers while they search.
type Tally struct {
	LowerBoundCalcs int64 // MINDIST computations (per-series and per-node)
	RealDistCalcs   int64 // raw-series distance computations
	BSFUpdates      int64 // successful best-so-far improvements
	NodesVisited    int64 // tree nodes touched during traversal
	LeavesInserted  int64 // leaves pushed into priority queues
	LeavesPruned    int64 // leaves discarded on pop (stale bound)
	ScanPlans       int64 // runs that scanned in position order instead of using the tree
	Workers         int64 // worker goroutines the query's phases ran on (insert phases), helpers included
	Yields          int64 // helpers that left the drain for a query waiting for a worker

	// Phases holds the wall time of each Figure 13 phase, summed over
	// workers; all zero unless the query is traced.
	Phases [NumPhases]time.Duration
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.LowerBoundCalcs += o.LowerBoundCalcs
	t.RealDistCalcs += o.RealDistCalcs
	t.BSFUpdates += o.BSFUpdates
	t.NodesVisited += o.NodesVisited
	t.LeavesInserted += o.LeavesInserted
	t.LeavesPruned += o.LeavesPruned
	t.ScanPlans += o.ScanPlans
	t.Workers += o.Workers
	t.Yields += o.Yields
	for p, d := range o.Phases {
		t.Phases[p] += d
	}
}

// BSF is the shared best-so-far distance cell (squared distance plus the
// position of the series achieving it). The paper protects the BSF with a
// lock; we keep the hot pruning path a single atomic load — every node
// and every series comparison reads it — by caching the distance bits in
// their own cell (non-negative IEEE-754 floats order identically to their
// bit patterns, so a numeric min is a bitwise min), while the (dist, pos)
// PAIR is published together through a pointer CAS. Two racing
// improvements can therefore never leave one update's distance paired
// with the other's position — which matters once a BSF fuses the answer
// of several shards' worker fleets, not just one run's.
type BSF struct {
	bits atomic.Uint64          // monotone min cache of best.dist, for Load
	best atomic.Pointer[bsfRec] // consistent (dist, pos), source of truth
}

// bsfRec is one immutable published improvement.
type bsfRec struct {
	dist float64
	pos  int64
}

// NewBSF returns a BSF initialized to +Inf / position -1.
func NewBSF() *BSF {
	b := &BSF{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	b.best.Store(&bsfRec{dist: math.Inf(1), pos: -1})
	return b
}

// Load returns the current squared best-so-far pruning threshold. It may
// momentarily lag an in-flight Update (a stale, larger threshold only
// admits extra candidates, never wrongly prunes); once updates quiesce it
// equals Best's distance exactly.
func (b *BSF) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Best returns the current squared distance and the position achieving
// it. The pair is read atomically together.
func (b *BSF) Best() (dist float64, pos int64) {
	r := b.best.Load()
	return r.dist, r.pos
}

// Update lowers the BSF to dist (with the achieving position) if dist is
// an improvement. It reports whether the value was updated. dist must be
// non-negative (squared distances always are).
func (b *BSF) Update(dist float64, pos int64) bool {
	var rec *bsfRec
	for {
		cur := b.best.Load()
		if dist >= cur.dist {
			return false
		}
		if rec == nil {
			rec = &bsfRec{dist: dist, pos: pos}
		}
		if b.best.CompareAndSwap(cur, rec) {
			break
		}
	}
	// Lower the pruning cache monotonically; a concurrent better update
	// may already have driven it below dist, in which case leave it.
	newBits := math.Float64bits(dist)
	for {
		cur := b.bits.Load()
		if newBits >= cur || b.bits.CompareAndSwap(cur, newBits) {
			return true
		}
	}
}

// Phase identifies one component of query answering time, matching the
// breakdown of Figure 13.
type Phase int

// The phases of Figure 13.
const (
	PhaseInit     Phase = iota // BSF initialization (approximate search)
	PhaseTreePass              // index traversal computing node lower bounds
	PhasePQInsert              // priority queue insertions
	PhasePQRemove              // priority queue removals
	PhaseDistCalc              // lower-bound + real distance calculations
	NumPhases
)

// String returns the paper's label for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "Initialization"
	case PhaseTreePass:
		return "MESSI tree pass"
	case PhasePQInsert:
		return "PQ insert node"
	case PhasePQRemove:
		return "PQ remove node"
	case PhaseDistCalc:
		return "Distance calculation"
	default:
		return "Unknown"
	}
}
