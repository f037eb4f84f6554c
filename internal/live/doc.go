// Package live implements a mutable MESSI index as a layered system over
// the immutable core: freshly appended series land in a concurrent delta
// buffer (internal/delta), while the bulk of the data lives in an immutable
// generation — a shard group of core indexes. A query loads ONE view
// (generation + frozen delta + active delta) and hands it to the persistent
// engine (internal/engine), which searches the generation's shards and the
// delta's chunks as members of one fan-out: the chunks are scanned exactly,
// in position order, on the same pool and into the same collector as the
// tree search, so what the delta holds both participates in the result and
// tightens tree pruning, and the other way round.
//
// New is the one constructor. It starts with no generation, or from a
// built one: a fresh shard.Build, a loaded snapshot, or the index behind
// the root package's Index.NewEngine, which is a live index that never
// appends and so serves a static index on the same pool, admission gate
// and Do as every other.
//
// When the delta exceeds a configurable threshold, a background rebuild
// merges it with the current generation into a new core.Index using the
// paper's parallel construction, then atomically swaps the generation in
// (RCU-style: the view — generation + frozen delta + active delta — is an
// immutable value behind an atomic pointer). In-flight queries finish on
// the view they loaded; appends arriving during the rebuild go to a fresh
// active delta and become part of the next generation. Neither queries
// nor appends ever block on a rebuild. A rebuild first collects the
// generation its predecessor retired (one runtime.GC), so memory stays at
// about two generations whatever the pacer's cycles would have left.
//
// Positions are stable across rebuilds: series are numbered in append
// order (the initial collection first), and the merge preserves that
// order, so a position handed out by Append refers to the same series
// forever.
//
// # Generation swap rules
//
//   - The view pointer is the single source of truth and the only place a
//     generation is published (the engine holds none). A query loads it
//     once and uses that consistent (generation, frozen delta, active
//     delta) triple for its whole execution; it never re-loads mid-query.
//   - Only the rebuild goroutine swaps the pointer, and only after the
//     new generation is fully built, so readers observe either the old
//     complete view or the new complete view — never a partial one.
//   - At most one rebuild runs at a time; a threshold crossing during an
//     active rebuild marks it pending rather than starting a second.
//   - The frozen delta stays queryable until the swap lands; the series
//     it holds are in exactly one of {frozen delta, new generation} from
//     any reader's perspective, so answers neither miss nor duplicate a
//     series.
package live
