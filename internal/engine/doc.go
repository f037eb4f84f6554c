// Package engine is the query executor of a MESSI index: every query, on
// every frontend, runs through an Engine. New returns one behind an
// admission gate of PoolWorkers worker tokens, which sizes each query from
// its prepared plan; NewUngated returns the same engine without the gate,
// every query on PoolWorkers workers, for an owner that is never closed,
// the static root Index. Neither holds a goroutine
// between queries: each query starts its own workers, as the paper (and
// its VLDBJ journal extension) evaluates it with Ns freshly spawned
// workers per query, and the per-query scratch comes from a sync.Pool.
//
// The engine owns the gate, not an index. Do takes the View to search —
// an immutable generation (a shard group, possibly absent) plus the
// contiguous chunks of series appended since — so a static index is a
// view with an empty delta, and a live index publishes a rebuilt
// generation, or the chunks an append added, by storing its own view
// pointer, nothing else. Do is the only
// query method and run the only execution path, for every distance
// (Euclidean, DTW), answer shape (1-NN, k-NN) and quality mode:
//
//   - validation: the request is checked (core.Request.Validate, then
//     CheckShape against the view) before anything else, so a malformed
//     request fails with its sentinel without waiting for a slot.
//   - preparation, before the gate: every member of the fan-out is
//     prepared in one stage, one goroutine per member with the caller
//     taking the last — one run per shard (core.Index.NewRun, offset by
//     the shard's Start — an approximate request is complete at that
//     point) and one exact position-order scan per delta chunk (core.Scan,
//     offset by the chunk's Start), all into one shared collector and one
//     QoS state.
//   - admission by width (no gate on NewUngated's engine): the gate holds
//     PoolWorkers worker tokens and admits first come, first served. A
//     narrow query — every pending run keeps the tree with a small sampled
//     share (core.SearchRun.Narrow) — waits for one token per run; any
//     other query waits for all of them. A query with no pending run takes
//     none, and one whose deadline passes in the queue answers with what
//     its preparation found, flagged inexact.
//   - execution: Algorithm 6, per run. A wide query's runs split its
//     workers evenly, ⌈PoolWorkers/runs⌉ each; a narrow query's get one
//     each, plus one helper per token it can borrow while nobody waits.
//     Each worker inserts its claimed blocks of root subtrees into the
//     queues, waits at the run's all-inserted barrier (a sync.WaitGroup),
//     then drains the queues — a helper only until a query waits at the
//     gate: it then leaves before its next pop and gives its token back.
//     A run whose tree pass ends early drains while the others still
//     traverse, tightening the shared bound they prune with.
//   - per-query scratch (PAA buffer, iSAX word buffer, distance table,
//     queue set) comes from a sync.Pool of core.QueryState and is returned
//     after each query.
//   - every unit of query work — a member's preparation, a worker's insert
//     or drain phase — recovers its own panics, so each worker always
//     reaches its barrier and the query fails alone with
//     ErrQueryPanicked; its scratch states are dropped instead of
//     returned, and the engine keeps serving.
//
// # Contracts
//
// An Engine is safe for unlimited concurrent callers. Queries submitted
// after Close fail fast with ErrClosed, and a view holding no series at
// all with core.ErrEmptyIndex — sentinels, so servers map them to
// responses without string matching. Under pressure the admission gate
// can degrade instead of queueing unboundedly: with Options.DegradeEpsilon
// set, an exact query arriving while no worker token is free runs in
// epsilon mode, trading a proven small error for latency.
//
// Results are identical with and without the gate: admission changes when
// a query starts, never what it computes.
package engine
