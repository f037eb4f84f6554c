package engine

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// engMetrics holds the engine's registered instruments. A nil *engMetrics
// (metrics disabled) makes every record method a no-op, so a query pays one
// nil check.
type engMetrics struct {
	queueDepth *metrics.Gauge     // queries waiting for admission right now
	admitWait  *metrics.Histogram // time spent waiting for an admission slot
	admitted   *metrics.Counter   // queries granted an admission slot
	degraded   *metrics.Counter   // exact queries rewritten to ε-bounded under overload
	expired    *metrics.Counter   // deadline queries that expired while queued
	cancelled  *metrics.Counter   // queries cancelled while queued

	queryDur [4]*metrics.Histogram // end-to-end latency by mode (index = core.Mode)
	exact    *metrics.Counter      // answers proven exact
	inexact  *metrics.Counter      // answers returned without an exactness proof
	fanout   *metrics.Counter      // queries fanned out across a sharded generation
	panics   *metrics.Counter      // query panics recovered on worker goroutines

	// Cumulative rollups of the per-query counts of core.Result.Tally —
	// the fleet view of Figure 17's pruning-efficiency measurements.
	lowerBounds *metrics.Counter
	realDists   *metrics.Counter
	nodes       *metrics.Counter
	leavesIns   *metrics.Counter
	leavesPrune *metrics.Counter
	bsfUpdates  *metrics.Counter
	scanPlans   *metrics.Counter
}

// newEngMetrics registers the engine's instruments on r (nil r → nil, all
// recording disabled). Registration is idempotent, so several engines in
// one process share one set.
func newEngMetrics(r *metrics.Registry, opts Options) *engMetrics {
	if r == nil {
		return nil
	}
	m := &engMetrics{
		queueDepth: r.Gauge("messi_admission_queue_depth",
			"Queries currently waiting for an admission slot."),
		admitWait: r.Histogram("messi_admission_wait_seconds",
			"Time queries spend waiting for an admission slot."),
		admitted: r.Counter("messi_queries_admitted_total",
			"Queries granted an admission slot."),
		degraded: r.Counter("messi_queries_degraded_total",
			"Exact queries rewritten to epsilon-bounded under overload (DegradeEpsilon)."),
		expired: r.Counter("messi_queries_deadline_expired_total",
			"Deadline queries whose budget expired while waiting for admission."),
		cancelled: r.Counter("messi_queries_cancelled_total",
			"Queries cancelled while waiting for admission."),
		exact: r.Counter("messi_query_results_total",
			"Answers served, by exactness of the proof.", metrics.L("exact", "true")),
		inexact: r.Counter("messi_query_results_total",
			"Answers served, by exactness of the proof.", metrics.L("exact", "false")),
		fanout: r.Counter("messi_shard_fanout_queries_total",
			"Queries fanned out across a sharded generation with a shared best-so-far."),
		panics: r.Counter("messi_query_panics_total",
			"Query panics recovered on query worker goroutines (each failed only its own query)."),
		lowerBounds: r.Counter("messi_lower_bound_calcs_total",
			"Cumulative summary lower-bound computations across all queries."),
		realDists: r.Counter("messi_real_dist_calcs_total",
			"Cumulative raw-series distance computations across all queries."),
		nodes: r.Counter("messi_nodes_visited_total",
			"Cumulative index tree nodes visited across all queries."),
		leavesIns: r.Counter("messi_leaves_inserted_total",
			"Cumulative leaves pushed into priority queues across all queries."),
		leavesPrune: r.Counter("messi_leaves_pruned_total",
			"Cumulative leaves discarded on pop with a stale bound across all queries."),
		bsfUpdates: r.Counter("messi_bsf_updates_total",
			"Cumulative successful best-so-far improvements across all queries."),
		scanPlans: r.Counter("messi_scan_plans_total",
			"Cumulative shard runs that scanned in position order because their lower bounds were predicted not to prune."),
	}
	for mode := core.ModeExact; mode <= core.ModeDeadline; mode++ {
		m.queryDur[mode] = r.Histogram("messi_query_duration_seconds",
			"End-to-end query latency through the engine, by quality mode.",
			metrics.L("mode", mode.String()))
	}
	r.Gauge("messi_engine_pool_workers",
		"Worker budget: the admission gate's worker tokens, all of which a wide query holds.").Set(float64(opts.PoolWorkers))
	r.Gauge("messi_engine_degrade_epsilon",
		"Overload policy epsilon (0 = never degrade).").Set(opts.DegradeEpsilon)
	return m
}

// RegisterShards registers messi_engine_shards on r, read from shards at
// exposition time. The engine holds no generation, so whoever owns the
// current one — a live index's view, a static index — feeds the series.
func RegisterShards(r *metrics.Registry, shards func() int) {
	r.GaugeFunc("messi_engine_shards",
		"Shards in the currently installed index generation.",
		func() float64 { return float64(shards()) })
}

// waitStart marks a query entering the admission queue and returns the
// wait-measurement start time (zero when metrics are off).
func (m *engMetrics) waitStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.queueDepth.Inc()
	return time.Now()
}

// waitEnd marks a query leaving the admission queue and counts how it
// left: admitted (ok), cancelled (err) or expired.
func (m *engMetrics) waitEnd(start time.Time, ok bool, err error) {
	if m == nil {
		return
	}
	m.queueDepth.Dec()
	m.admitWait.Observe(time.Since(start))
	switch {
	case err != nil:
		m.cancelled.Inc()
	case !ok:
		m.expired.Inc()
	default:
		m.admitted.Inc()
	}
}

// recordOutcome rolls one answered query into the cumulative view.
func (m *engMetrics) recordOutcome(mode core.Mode, dur time.Duration, exact bool) {
	if m == nil {
		return
	}
	if mode >= 0 && int(mode) < len(m.queryDur) {
		m.queryDur[mode].Observe(dur)
	}
	if exact {
		m.exact.Inc()
	} else {
		m.inexact.Inc()
	}
}

// recordTally rolls one query's operation counts into the cumulative
// pruning counters.
func (m *engMetrics) recordTally(t stats.Tally) {
	if m == nil {
		return
	}
	m.lowerBounds.Add(t.LowerBoundCalcs)
	m.realDists.Add(t.RealDistCalcs)
	m.nodes.Add(t.NodesVisited)
	m.leavesIns.Add(t.LeavesInserted)
	m.leavesPrune.Add(t.LeavesPruned)
	m.bsfUpdates.Add(t.BSFUpdates)
	m.scanPlans.Add(t.ScanPlans)
}
