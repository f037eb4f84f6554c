// Package shard partitions a series collection across S independent MESSI
// indexes (ParIS+-style: one index structure per slice of the data), which
// queries fan out across.
//
// Each shard covers one contiguous range of positions: shard s holds
// [Start(s), Start(s)+n_s), where the first n%S shards hold ⌈n/S⌉ series
// and the rest ⌊n/S⌋. A collection of fewer series than the shard count
// asked for gets one shard per series, so every shard holds at least one
// series and no caller handles an empty one. A shard's local position i
// is global position Start(s)+i — the same rule a live index's delta
// chunks follow — so the mapping is one offset per shard, and a static
// build indexes subslices of the caller's storage without copying it.
//
// The package holds no query code. A shard group is what the query engine
// (internal/engine) searches as the base of a view: one run per shard,
// built through core.Index.NewRun with the shard's Start as the
// position offset, all threading one shared collector (the 1-NN
// best-so-far or the k-NN top-k, holding global positions) and one QoS
// state (core.SearchOptions.Shared/Start/QoS). A tight bound found in shard
// 0 immediately prunes the tree traversals and leaf scans of shards
// 1..S-1, so the fan-out does the same total pruning work as one big tree,
// and the collector's contents are the answer — there is no merge step.
// Answers are identical to a single index built over the whole collection,
// since the collector breaks distance ties by global position; an
// unsharded index is a fan-out of one.
//
// # Concurrency invariants
//
//   - A built Index is immutable and safe for unlimited concurrent
//     queries, like the core indexes it wraps.
//   - The shared collector (and the QoS state's witness and stop flags) is
//     the only cross-shard communication during a query. Its threshold is
//     monotone decreasing — lock-free for 1-NN (stats.BSF), published
//     under the top-k set's mutex for k-NN: shards racing to publish
//     improvements can only tighten pruning, never loosen it, so fan-out
//     answers are deterministic even though the interleaving is not.
//   - Shard construction is concurrent (one builder per shard); Build
//     returns only after every shard finishes, so no query observes a
//     partially built shard.
package shard
