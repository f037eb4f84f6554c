// Package shard partitions a series collection across S independent MESSI
// indexes (ParIS+-style: one index structure per slice of the data) and
// answers queries by fanning out across the shards.
//
// Series are routed round-robin: global position p lives in shard p%S at
// local position p/S, so the local↔global mapping is pure arithmetic and
// stays stable as the collection grows — a live index appending series
// keeps the same routing forever, and a generational rebuild touches each
// shard's O(n/S) slice instead of one O(n) tree.
//
// Every query is a fan-out — Do is the one query method, and an unsharded
// index is a fan-out of one. A Query threads one shared collector (the 1-NN
// best-so-far or the k-NN top-k, holding global positions) and one QoS
// state through every shard's run (core.SearchOptions.Shared/GlobalPos/QoS):
// a tight bound found in shard 0 immediately prunes the tree traversals and
// leaf scans of shards 1..S-1, so the fan-out does the same total pruning
// work as one big tree, and the collector's contents are the answer — there
// is no merge step. Answers are identical to a single index built over the
// whole collection. Do validates the request and spawns each run's workers
// for the query (the paper's mode); the engine, which validates before it
// admits, builds the same runs through Query.NewRun and executes them on
// its pool, and adds the chunks of a live index's delta to the same fan-out
// through Query.Scan — members with no tree, scanned in position order.
//
// # Concurrency invariants
//
//   - A built Index is immutable; all query methods are safe for
//     unlimited concurrent use, like the core indexes they wrap.
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
