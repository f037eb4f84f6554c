// Package engine is the query executor of a MESSI index: every query, on
// every frontend, runs through an Engine. New starts a long-lived pool of
// worker goroutines and an admission gate that answer many queries over
// the index's lifetime, amortizing goroutine starts and the
// priority-queue/PAA-buffer allocations across them. NewUnpooled returns
// the same engine without a pool or a gate — each unit of query work runs
// on a goroutine started for it — for an owner that is never closed, the
// static root Index.
//
// The paper (and its VLDBJ journal extension) evaluates one query at a
// time with Ns freshly spawned workers; a serving system instead sees a
// sustained stream of concurrent queries. The engine keeps the paper's
// algorithm intact — each query still runs Algorithm 6's two phases
// against its own bound and queue set — and executes the phases as units
// of work, on the shared pool or on goroutines of their own.
//
// The engine owns the pool and the gate, not an index. Do takes the View
// to search — an immutable generation (a shard group, possibly absent)
// plus the contiguous chunks of series appended since — so a static index
// is a view with an empty delta, and a live index publishes a rebuilt
// generation by storing its own view pointer, nothing else. Do is the only
// query method and run the only execution path, for every distance
// (Euclidean, DTW), answer shape (1-NN, k-NN) and quality mode:
//
//   - validation: the request is checked (core.Request.Validate, then
//     CheckShape against the view) before anything else, so a malformed
//     request fails with its sentinel without waiting for a slot.
//   - admission: at most MaxConcurrent queries execute at once (no gate
//     without a pool).
//   - execution: every member of the fan-out is prepared in one stage —
//     one run per shard (core.Index.NewRun with the shard's GlobalPos — an
//     approximate request is complete at that point) and one exact
//     position-order scan per delta chunk (core.Scan), all into one shared
//     collector and one QoS state — then the insert units and, as soon as
//     a run's last insert unit returns (its all-inserted barrier), that
//     run's drain units: QueryWorkers units per phase in total, split
//     evenly across the runs.
//   - pool goroutines never block on query-level barriers (the caller
//     does), so any mix of in-flight queries is deadlock-free: one query
//     may own every pool worker, or K queries interleave their units.
//   - per-query scratch (PAA buffer, iSAX word buffer, distance table,
//     queue set) comes from a sync.Pool of core.QueryState and is returned
//     after each query.
//   - every unit of query work — shard preparation and delta scans
//     included, pooled or not — recovers its own panics: the query fails
//     alone with ErrQueryPanicked, its scratch states are dropped instead
//     of returned, and the engine keeps serving.
//
// # Contracts
//
// An Engine is safe for unlimited concurrent callers. Queries submitted
// after Close fail fast with ErrClosed, and a view holding no series at
// all with core.ErrEmptyIndex — sentinels, so servers map them to
// responses without string matching. Under pressure the admission gate
// can degrade instead of queueing unboundedly: with Options.DegradeEpsilon
// set, an exact query arriving while MaxConcurrent queries are already
// executing runs in epsilon mode, trading a proven small error for
// latency.
//
// Results are identical with and without a pool: the pool changes who
// executes the phases, never what they compute.
package engine
