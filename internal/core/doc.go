// Package core implements the paper's primary contribution: the MESSI
// in-memory data series index. It contains the parallel index-construction
// pipeline of §III-A (Algorithms 1-4) and the parallel exact query
// answering of §III-B (Algorithms 5-9), plus the DTW mode (Figure 19) and
// a k-NN extension of the same machinery: one SearchRun, built only by
// Index.NewRun from a Request, parameterised by a distance kernel
// (Euclidean, or LB_Keogh→DTW), a Collector (the 1-NN BSF or a top-k set)
// and a QoS state, with one candidate loop (refine) behind every flavour
// and its position-order counterpart (scanRange) for series held outside a
// tree (Scan) and for runs that plan to scan. Both loops measure through
// one contract: the kernel's measure per candidate and flush at the end,
// so the DTW kernel batches its bounds and DPs (dtw.Batch) on either loop
// and neither loop knows the flavour. A run chooses its plan in
// preparation, from a sample of the index's iSAX words: a query whose lower
// bounds cannot prune scans its index's series in position order instead of
// passing them through the tree and the queues, with the same kernel and
// collector. An approximate answer is a run that is complete after its
// preparation.
// The package has no per-flavour entry points and no executor: the query
// engine (internal/engine) fans a Request out over one run per shard, each
// on a borrowed QueryState, and dispatches the runs' phases as units of
// work.
//
// # Contracts
//
// Build is deterministic: the tree is the one a sequential insert of the
// series in position order builds, at every IndexWorkers and ChunkSize,
// under a root keyed on the first k segments — k the smallest value ≤ w
// at which the series fit LeafCapacity·2^k, so MESSI's 2^w-child root
// only at the paper's scale. A loaded index keeps the k it was built at.
// An *Index is immutable once Build returns: any number of runs may be in
// flight on it at once, and nothing in the package mutates the
// tree, the series block, or the iSAX summaries after construction. Build
// and Restore fill the same plan sample, so a snapshot round trip plans
// every query the same way. The plan never changes an answer: both plans
// measure every candidate the bound admits with the same kernel. All
// distances handled internally are squared Euclidean (or squared
// LB_Keogh/DTW); public Match values carry the square root.
//
// Request/Result and the QoS type extend the paper's exact search into a
// quality spectrum: exact, approximate (leaf-only), epsilon (prune at
// lb·(1+ε)², answer proven within 1+ε of optimal), and deadline (stop at
// a time budget, report the proven bound). Request.Validate (mode, ε, K,
// DTW×K) and Request.CheckShape (query length and values, DTW window) are
// the only validation; their failures are the sentinel errors ErrBadK,
// ErrBadWindow, ErrWrongLength, ErrBadEpsilon, and ErrNonFinite, so callers
// can map them to API responses without string matching. NewRun itself
// trusts a checked request and cannot fail: no Index is empty.
//
// # Concurrency invariants
//
//   - The best-so-far bound (stats.BSF) is updated lock-free: the (dist,
//     pos) pair is published as an immutable record behind an atomic
//     pointer, with a separate monotone bits cache for cheap Load. A
//     stale Load only admits extra candidates — it never wrongly prunes —
//     so readers may lag writers safely.
//   - Query workers share pqueue.Set priority queues; a worker that finds
//     a queue empty steals from the others before exiting (Algorithm 6's
//     termination), so no leaf is dropped when workers finish unevenly.
//   - SearchOptions.Shared threads an external Collector through the
//     search so several index shards (and the position-order Scan of a
//     live index's delta chunks) tighten one another's pruning as they
//     run; SearchOptions.Start, the global position of the index's first
//     series, is added to every local position published to it.
//     The top-k collector rejects a position it already holds.
//   - Per-query scratch (PAA buffer, iSAX word, distance table, queues)
//     lives in the QueryState a run is built on and is confined to that
//     run; the sync.Pool reuse in internal/engine relies on queries never
//     retaining scratch past return.
//   - Per-worker scratch (lower bounds, surviving entries, the sink of
//     the gather-ahead loads, the DTW kernel's pending batch) is borrowed
//     from a pool for one drain or scan phase, seed or Scan, and never
//     shared between workers; every candidate loop flushes its batch
//     before it returns.
//   - Each worker counts its work into a stats.Tally of its own with plain
//     increments and adds it to the query's total in the QoS state once per
//     unit of work (a run's preparation, an insert or drain phase, a delta
//     chunk's scan); the total comes back as Result.Tally. A kernel counts
//     into the worker's scratch, which each candidate loop folds into the
//     tally before it returns, so no tally escapes to the heap through the
//     kernel interface. Nothing shared is written per node, per leaf or
//     per pop to count or to time.
package core
