package messi

import (
	"errors"
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/live"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/wal"
)

// EngineOptions configures the worker pool and admission gate a LiveIndex
// serves every query on (LiveOptions.Engine, Index.NewEngine). Zero fields
// inherit from the index options.
type EngineOptions struct {
	// PoolWorkers is the number of long-lived worker goroutines shared by
	// all queries. Default: the index's SearchWorkers.
	PoolWorkers int
	// QueryWorkers is the per-query parallelism: how many pool work units
	// each query dispatches per phase, in total across its shards.
	// Default: PoolWorkers.
	QueryWorkers int
	// Queues is the number of priority queues per query. Default: the
	// index's QueueCount.
	Queues int
	// MaxConcurrent bounds how many queries execute concurrently; further
	// queries wait for admission. Default: PoolWorkers/QueryWorkers
	// (at least 1).
	MaxConcurrent int
	// DegradeEpsilon, when positive, is the overload policy of the
	// admission gate: an exact-mode Do request arriving while
	// MaxConcurrent queries are already executing is served as an
	// ε-bounded query with this ε instead of stacking queueing latency
	// on top of exact-search latency. Requests that chose their mode
	// explicitly are never rewritten, and the Result reports the bound
	// actually proven. Zero (the default) never degrades.
	DegradeEpsilon float64
	// Metrics, when non-nil, receives the engine's serving telemetry:
	// admission-gate pressure (queue depth, wait time, admitted/degraded/
	// deadline-expired/cancelled counts), per-mode latency histograms,
	// answer exactness outcomes, and cumulative pruning counters. Nil
	// (the default) disables all measurement.
	Metrics *Metrics
}

// LiveOptions configures streaming ingestion for a LiveIndex. The zero
// value (or a nil *LiveOptions) selects the defaults.
type LiveOptions struct {
	// RebuildThreshold is the number of buffered (delta) series that
	// triggers a background generation rebuild. Default 100000.
	RebuildThreshold int
	// Engine configures the worker pool and admission gate that answer
	// every query, tree search and delta scan alike.
	Engine EngineOptions
	// SnapshotPath, when non-empty, makes the live index persist its
	// immutable generation there (atomically) after every successful
	// Flush, and best-effort on Close — so a restarted server can boot
	// from the snapshot via LoadLive instead of rebuilding. Errors from
	// the Close-time snapshot are discarded; call Flush or Save first
	// when durability must be confirmed.
	SnapshotPath string
	// Metrics, when non-nil, receives the live index's telemetry (delta
	// occupancy, rebuild counts and durations, generation number) and is
	// inherited by the query pool unless Engine.Metrics is set
	// separately. Nil disables measurement.
	Metrics *Metrics
	// WALDir, when non-empty, enables a write-ahead log in that
	// directory: every acked Append/AppendBatch is journaled before it
	// becomes searchable, and a restarted process replays the log tail
	// on boot (via NewLive/LoadLive with the same WALDir) so acked
	// series survive a crash even when they never made it into a
	// snapshot. Snapshots written by Flush, Save, or Close truncate the
	// log's covered prefix. Empty (the default) disables journaling.
	WALDir string
	// WALSync selects the WAL durability policy: "always" (fsync every
	// append — an acked append survives power loss; the default),
	// "interval" (fsync on a background timer — bounded loss window,
	// much higher throughput), or "none" (rely on the OS page cache —
	// survives process crashes but not power loss).
	WALSync string
	// WALSegmentBytes caps a WAL segment before rotating to a fresh
	// file (truncation drops whole covered segments). 0 means 64 MiB.
	WALSegmentBytes int64
}

func (o *LiveOptions) toLive(coreOpts core.Options) live.Options {
	lo := live.Options{Core: coreOpts}
	if o != nil {
		lo.RebuildThreshold = o.RebuildThreshold
		lo.Engine = engine.Options(o.Engine)
		lo.Metrics = o.Metrics
	}
	return lo
}

// LiveIndex is a mutable MESSI index supporting streaming ingestion:
// Append adds series that are immediately searchable (answered exactly
// from a delta buffer fused with the indexed generation), and a
// background rebuild periodically merges the delta into a new immutable
// generation without blocking queries or appends. Search results are
// identical to a fresh Build over the union of all the data.
//
//	ix, _ := messi.NewLive(256, nil, nil)          // start empty
//	pos, _ := ix.Append(mySeries)                  // searchable immediately
//	res, _ := ix.Do(ctx, messi.SearchRequest{Query: query})
//	ix.Close()
//
// A LiveIndex is safe for concurrent use; Close it when done.
type LiveIndex struct {
	inner        *live.Index
	normalize    bool
	snapshotPath string   // from LiveOptions.SnapshotPath; "" disables
	wal          *wal.Log // from LiveOptions.WALDir; nil disables
}

// openWAL opens the write-ahead log configured by lopts (nil when
// journaling is disabled). The LiveIndex owns the returned log: the
// internal live index only appends to and replays from it.
func openWAL(lopts *LiveOptions, seriesLen int) (*wal.Log, error) {
	if lopts == nil || lopts.WALDir == "" {
		return nil, nil
	}
	policy, err := wal.ParseSyncPolicy(lopts.WALSync)
	if err != nil {
		return nil, err
	}
	return wal.Open(lopts.WALDir, seriesLen, &wal.Options{
		SegmentBytes: lopts.WALSegmentBytes,
		Sync:         policy,
	})
}

// NewLive creates an empty live index for series of the given length.
// Both option structs may be nil for the defaults.
func NewLive(seriesLen int, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	return newLive(seriesLen, nil, opts, lopts)
}

// BuildLive creates a live index seeded with an initial batch of series
// (each row copied), indexed synchronously as the first generation.
func BuildLive(rows [][]float32, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	col, err := series.FromSlices(rows)
	if err != nil {
		return nil, err
	}
	return newLive(col.Length, col, opts, lopts)
}

// BuildLiveFlat creates a live index seeded with flat row-major storage
// (retained without copying, like BuildFlat; the caller must not modify
// data afterwards).
func BuildLiveFlat(data []float32, seriesLen int, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	col, err := series.NewCollection(data, seriesLen)
	if err != nil {
		return nil, err
	}
	return newLive(seriesLen, col, opts, lopts)
}

// BuildLiveFromFile creates a live index seeded with a dataset file
// written by WriteSeriesFile or the messi-gen tool.
func BuildLiveFromFile(path string, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	col, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return newLive(col.Length, col, opts, lopts)
}

// newLive indexes col (nil or empty for an empty start) as the first
// generation of a new live index.
func newLive(seriesLen int, col *series.Collection, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	coreOpts, normalize, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	lo := lopts.toLive(coreOpts)
	lo.Shards = opts.shards()
	var base *shard.Index
	if col != nil && col.Count() > 0 {
		if normalize {
			col.ZNormalizeAll()
		}
		if base, err = shard.Build(col, lo.Shards, coreOpts); err != nil {
			return nil, err
		}
	}
	return startLive(seriesLen, base, normalize, lo, lopts)
}

// NewEngine serves the index on a worker pool behind an admission gate: a
// LiveIndex whose first generation is the index itself, with no WAL, no
// snapshot path and no live metrics. Its answers are Index.Do's; pool and
// queue defaults come from the index's options. opts may be nil for the
// defaults. Close it when done.
//
//	eng := ix.NewEngine(nil)
//	defer eng.Close()
//	res, err := eng.Do(ctx, messi.SearchRequest{Query: q})
func (ix *Index) NewEngine(opts *EngineOptions) *LiveIndex {
	lopts := &LiveOptions{}
	if opts != nil {
		lopts.Engine = *opts
	}
	lix, err := startLive(ix.inner.SeriesLen(), ix.inner, ix.normalize, lopts.toLive(ix.inner.Opts()), lopts)
	if err != nil {
		// A built index is non-empty, its schema is valid and no WAL is
		// named: only a bug gets here.
		panic(fmt.Sprintf("messi: NewEngine: %v", err))
	}
	return lix
}

// startLive is the one assembly of a LiveIndex: it opens the WAL lopts
// names, starts the internal live index around base (nil for an empty
// start), which replays the log's tail, and closes the log again when
// that fails.
func startLive(seriesLen int, base *shard.Index, normalize bool, lo live.Options, lopts *LiveOptions) (*LiveIndex, error) {
	w, err := openWAL(lopts, seriesLen)
	if err != nil {
		return nil, err
	}
	lo.WAL = w
	inner, err := live.New(seriesLen, base, lo)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, err
	}
	return &LiveIndex{inner: inner, normalize: normalize, snapshotPath: snapshotPath(lopts), wal: w}, nil
}

// Append adds one series (copied) and returns its stable position. The
// series is searchable as soon as Append returns, before any rebuild. A
// series holding a NaN or an infinity fails with ErrNonFinite.
func (ix *LiveIndex) Append(s []float32) (int, error) {
	if ix.normalize {
		s = series.ZNormalized(s)
	}
	return ix.inner.Append(s)
}

// AppendBatch adds a batch of series (copied) atomically, returning the
// position of the first; the batch occupies contiguous positions. One
// non-finite value anywhere fails the whole batch with ErrNonFinite.
func (ix *LiveIndex) AppendBatch(rows [][]float32) (int, error) {
	if ix.normalize {
		normalized := make([][]float32, len(rows))
		for i, r := range rows {
			normalized[i] = series.ZNormalized(r)
		}
		rows = normalized
	}
	return ix.inner.AppendBatch(rows)
}

// Flush synchronously merges all buffered series into the immutable
// generation; afterwards (absent concurrent appends) the delta is empty.
// With LiveOptions.SnapshotPath set, the merged generation is then
// persisted there; a snapshot write failure is returned (the in-memory
// merge itself has already succeeded).
func (ix *LiveIndex) Flush() error {
	if err := ix.inner.Flush(); err != nil {
		return err
	}
	if ix.snapshotPath != "" && ix.inner.Base() != nil {
		return ix.saveBase(ix.snapshotPath)
	}
	return nil
}

// Series returns (a view of) the series at the given stable position.
// Callers must not modify it.
func (ix *LiveIndex) Series(position int) ([]float32, error) {
	return ix.inner.Series(position)
}

// Len reports the number of searchable series.
func (ix *LiveIndex) Len() int { return ix.inner.Len() }

// SeriesLen reports the length (points) of each indexed series.
func (ix *LiveIndex) SeriesLen() int { return ix.inner.SeriesLen() }

// EngineOptions returns the effective (defaulted) options of the
// embedded query engine — the admission-gate configuration in force.
func (ix *LiveIndex) EngineOptions() EngineOptions {
	return EngineOptions(ix.inner.Engine().Options())
}

// Close stops background rebuilds and the query pool, then closes the
// WAL (when one is configured). Appends and queries after Close fail;
// Close is idempotent. With LiveOptions.SnapshotPath set, Close first
// writes a snapshot of the current generation (series still in the
// delta are not included — call Flush first for a complete one); a
// snapshot failure is returned AND logged, and counts against
// messi_snapshot_save_failures_total when snapshot metrics are
// installed, so an operator sees the durability gap either way. With a
// WAL the gap is bounded anyway: journaled appends replay on the next
// boot even when the Close-time snapshot never landed.
func (ix *LiveIndex) Close() error {
	ix.inner.Close()
	var err error
	if ix.snapshotPath != "" && ix.inner.Base() != nil {
		if serr := ix.saveBase(ix.snapshotPath); serr != nil {
			err = fmt.Errorf("messi: close-time snapshot: %w", serr)
			slog.Warn("live index close-time snapshot failed",
				"path", ix.snapshotPath, "err", serr)
		}
	}
	if ix.wal != nil {
		if werr := ix.wal.Close(); werr != nil && !errors.Is(werr, wal.ErrClosed) && err == nil {
			err = fmt.Errorf("messi: wal close: %w", werr)
		}
	}
	return err
}

// LiveStats describes a live index's current shape.
type LiveStats struct {
	Series      int     // total searchable series (base + delta)
	BaseSeries  int     // series in the current immutable generation
	DeltaSeries int     // series buffered in the delta
	Generation  int64   // immutable generations built so far
	Rebuilding  bool    // a background rebuild is in flight
	Shards      int     // index shards per generation (1 = unsharded)
	Index       Stats   // current generation's tree shape, aggregated over shards
	PerShard    []Stats // per-shard tree shapes (nil when unsharded)
}

// Stats returns a point-in-time snapshot of the index shape.
func (ix *LiveIndex) Stats() LiveStats {
	s := ix.inner.Stats()
	out := LiveStats{
		Series:      s.Series,
		BaseSeries:  s.BaseSeries,
		DeltaSeries: s.DeltaSeries,
		Generation:  s.Generation,
		Rebuilding:  s.Rebuilding,
		Shards:      s.Shards,
		Index:       Stats(s.Tree),
	}
	if len(s.PerShard) > 0 {
		out.PerShard = make([]Stats, len(s.PerShard))
		for i, st := range s.PerShard {
			out.PerShard[i] = Stats(st)
		}
	}
	return out
}
