// Package workload is the hardness-aware benchmarking harness: it
// generates query sets in controlled hardness tiers over a series
// collection, runs each tier through the unified quality-spectrum Do API,
// scores the answers against the brute-force ground truth of
// internal/scan, and emits a JSON report of per-tier recall@k, latency
// percentiles, and pruning-ratio curves.
//
// # Why hardness tiers
//
// The paper's evaluation (and its journal extension, "Fast Data Series
// Indexing for In-Memory Data") shows that MESSI's latency is driven by
// how well the iSAX lower bounds prune — and pruning is a property of the
// query, not just the collection. A query close to an indexed series
// produces a tight best-so-far immediately and prunes almost everything;
// a query far from every series leaves the bound loose and degenerates
// toward a full scan. Averaging ns/op over uniform random queries hides
// this spectrum entirely. The tiers make it explicit:
//
//   - TierMember: queries are indexed series — the easiest case; the BSF
//     reaches 0 after one leaf and pruning is near total.
//   - TierNearDup: members perturbed at very high SNR (near-duplicates) —
//     the realistic "find this known pattern again" workload.
//   - TierNoise: members perturbed at a controlled, lower SNR — quality
//     degrades smoothly as the query drifts off-manifold.
//   - TierOOD: out-of-distribution white-Gaussian series — no indexed
//     series is close, so the BSF stays loose.
//   - TierAdversarial: anti-correlated queries (negated members) — far
//     from every series in a self-similar collection by construction; the
//     worst pruning the collection can exhibit.
//
// # Determinism
//
// Generation is pure: the same (collection, tier, count, seed) produces
// byte-identical query sets, and each tier derives its own sub-seed so
// tiers are independent of generation order. The runner's quality metrics
// (recall, pruning counters) are deterministic when the index is built
// and queried single-worker (see cmd/messi-workload's defaults); latency
// measurement is inherently run-dependent and is therefore opt-in
// (Config.MeasureLatency), keeping the default report byte-stable for
// CI comparison across commits.
//
// The runner imports the public repro package so tiers exercise exactly
// the API users call; the paper's figures are measured separately, by the
// root bench_test.go (docs/REPRODUCTION.md).
package workload
