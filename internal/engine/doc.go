// Package engine provides the persistent query engine of a MESSI index: a
// long-lived pool of worker goroutines and an admission gate that answer
// many queries over the index's lifetime, amortizing the goroutine spawns
// and the priority-queue/PAA-buffer allocations that the per-query
// execution mode (shard.Index.Do) pays on every call.
//
// The paper (and its VLDBJ journal extension) evaluates one query at a
// time with Ns freshly spawned workers; a serving system instead sees a
// sustained stream of concurrent queries. The engine keeps the paper's
// algorithm intact — each query still runs Algorithm 6's two phases
// against its own bound and queue set — but executes the phases as work
// units dispatched onto the shared pool.
//
// The engine owns the pool and the gate, not an index. Do takes the View
// to search — an immutable generation (a shard group, possibly absent)
// plus the contiguous chunks of series appended since — so a static index
// is a view with an empty delta, and a live index publishes a rebuilt
// generation by storing its own view pointer, nothing else. Do is the only
// query method and the pooled path the only path, for every distance
// (Euclidean, DTW), answer shape (1-NN, k-NN) and quality mode:
//
//   - validation: the request is checked (core.Request.Validate, then
//     CheckShape against the view) before anything else, so a malformed
//     request fails with its sentinel without waiting for a slot.
//   - admission: at most MaxConcurrent queries execute at once.
//   - execution: every member of the fan-out is prepared on the pool in one
//     stage — one run per shard (shard.Query.NewRun — an approximate
//     request is complete at that point) and one exact position-order scan
//     per delta chunk (shard.Query.Scan), all into one shared collector —
//     then QueryWorkers insert units per run, the all-inserted barrier, and
//     QueryWorkers drain units per run.
//   - pool goroutines never block on query-level barriers (the caller
//     does), so any mix of in-flight queries is deadlock-free: one query
//     may own every pool worker, or K queries interleave their units.
//   - per-query scratch (PAA buffer, iSAX word buffer, distance table,
//     queue set) comes from a sync.Pool of core.QueryState and is returned
//     after each query.
//   - every unit of query work — shard preparation and delta scans
//     included — recovers its own panics: the query fails alone with
//     ErrQueryPanicked, its scratch states are dropped instead of
//     returned, and the pool keeps serving.
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
// Results are identical to running the same core search directly: the
// pool changes who executes the phases, never what they compute.
package engine
