package live

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/isax"
	"repro/internal/metrics"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/tree"
	"repro/internal/wal"
)

// fpRebuild fires inside the background generation merge, where crash
// tests inject rebuild failures (and panics) to exercise the frozen
// delta staying searchable and the bounded retry path.
var fpRebuild = fault.Register("live.rebuild")

// DefaultRebuildThreshold is the default number of active-delta series
// that triggers a background generation rebuild.
const DefaultRebuildThreshold = 100_000

// Default bounds of the rebuild retry backoff: a failed background
// rebuild is retried after DefaultRebuildRetryBase, doubling per
// consecutive failure up to DefaultRebuildRetryMax.
const (
	DefaultRebuildRetryBase = 100 * time.Millisecond
	DefaultRebuildRetryMax  = 10 * time.Second
)

// ErrClosed is returned by operations on a closed live index.
var ErrClosed = errors.New("live: index closed")

// ErrEmpty is returned by queries against a live index holding no series.
// It wraps core.ErrEmptyIndex so errors.Is treats the two uniformly.
var ErrEmpty = fmt.Errorf("live: index contains no series: %w", core.ErrEmptyIndex)

// Options configures a live index.
type Options struct {
	// Core configures every immutable generation (construction and
	// default query parameters); zero fields use the paper's defaults.
	Core core.Options
	// Engine configures the persistent query pool every query runs on,
	// whatever generation it searches; zero fields inherit from Core.
	Engine engine.Options
	// RebuildThreshold is the active-delta size (series) that triggers a
	// background rebuild. Default DefaultRebuildThreshold.
	RebuildThreshold int
	// BlockSeries is the delta storage block granularity. Default
	// delta.DefaultBlockSeries.
	BlockSeries int
	// Shards is the number of independent index shards per generation
	// (default 1). Each shard covers a contiguous range of positions, so a
	// generational rebuild reconstructs S trees of O(n/S) series
	// concurrently instead of one O(n) tree, and queries fan out across
	// the shards with a shared pruning bound.
	Shards int
	// Metrics, when non-nil, receives the live index's telemetry — delta
	// occupancy, generation number, rebuild counts and durations — and is
	// handed to the query engine (unless Engine.Metrics is already set).
	// Nil disables all measurement.
	Metrics *metrics.Registry
	// WAL, when non-nil, journals every acked Append/AppendBatch to the
	// write-ahead log before it reaches the delta buffer, and replays
	// the log's uncovered tail into the delta at boot. The index USES
	// the log but does not own it: the caller opens it (positioned
	// after any snapshot it loads), truncates it when snapshots land,
	// and closes it after Close.
	WAL *wal.Log
	// RebuildRetryBase/RebuildRetryMax bound the exponential backoff
	// applied to failed background rebuilds. Defaults
	// DefaultRebuildRetryBase/DefaultRebuildRetryMax.
	RebuildRetryBase time.Duration
	RebuildRetryMax  time.Duration
}

func (o Options) withDefaults() Options {
	if o.RebuildThreshold <= 0 {
		o.RebuildThreshold = DefaultRebuildThreshold
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.RebuildRetryBase <= 0 {
		o.RebuildRetryBase = DefaultRebuildRetryBase
	}
	if o.RebuildRetryMax <= 0 {
		o.RebuildRetryMax = DefaultRebuildRetryMax
	}
	if o.RebuildRetryMax < o.RebuildRetryBase {
		o.RebuildRetryMax = o.RebuildRetryBase
	}
	return o
}

// view is one immutable configuration of the index: the current
// generation, the frozen delta snapshot being merged by an in-flight (or
// failed) rebuild, and the active delta receiving appends. Queries load
// the whole view with one atomic read; the three position ranges are
// [0, baseLen), [baseLen, baseLen+frozen.Len()), and
// [activeStart, activeStart+active.Len()).
type view struct {
	base    *shard.Index    // nil before the first generation exists
	baseLen int             // series in base (0 when base == nil)
	frozen  *delta.Snapshot // nil unless a rebuild is pending/in flight
	active  *delta.Buffer
}

// frozenLen reports the frozen snapshot's size (0 when none).
func (v *view) frozenLen() int {
	if v.frozen == nil {
		return 0
	}
	return v.frozen.Len()
}

// activeStart is the global position of the active delta's first series.
func (v *view) activeStart() int { return v.baseLen + v.frozenLen() }

// Index is a mutable MESSI index: an immutable generation plus a delta
// buffer, with generational background rebuilds. All methods are safe for
// concurrent use.
type Index struct {
	opts      Options
	seriesLen int
	eng       *engine.Engine
	view      atomic.Pointer[view]
	gen       atomic.Int64 // immutable generations built so far

	// Rebuild telemetry (nil instruments when Options.Metrics is nil).
	rebuilds        *metrics.Counter
	rebuildFailures *metrics.Counter
	rebuildRetries  *metrics.Counter
	rebuildDur      *metrics.Histogram

	mu         sync.Mutex // serializes appends and view transitions
	cond       *sync.Cond // broadcast when a rebuild finishes
	rebuilding bool
	closed     bool
	rebuildErr error // last rebuild failure (sticky until a rebuild succeeds)

	// Bounded-backoff retry of failed rebuilds (guarded by mu).
	retryAttempt int         // consecutive failures so far
	retryTimer   *time.Timer // pending scheduled retry, nil when none

	walRow [1][]float32 // scratch for journaling single appends (under mu)
}

// New creates a live index for series of the given length. base, when
// non-nil, is an already-built generation — fresh from shard.Build or
// restored from a snapshot — published as generation 1 and retained
// without copying; future rebuilds merge appends into it. Its structural
// options (segments, cardinality, leaf capacity) and its shard count
// override opts, so later generations keep its shape; runtime options
// (workers, queues, thresholds) come from opts. A nil base starts with no
// generation: the index answers purely from the delta until the first
// rebuild.
func New(seriesLen int, base *shard.Index, opts Options) (*Index, error) {
	if base != nil {
		if base.Len() == 0 || base.SeriesLen() != seriesLen {
			return nil, fmt.Errorf("live: base holds %d series of length %d, want a non-empty one of length %d", base.Len(), base.SeriesLen(), seriesLen)
		}
		baseOpts := base.Opts()
		opts.Core.Segments = baseOpts.Segments
		opts.Core.CardBits = baseOpts.CardBits
		opts.Core.LeafCapacity = baseOpts.LeafCapacity
		opts.Shards = base.NumShards()
	}
	opts.Core = core.FillDefaults(opts.Core)
	opts = opts.withDefaults()
	if opts.Engine.Metrics == nil {
		opts.Engine.Metrics = opts.Metrics
	}
	// Validate the schema and shard count once up front so generation
	// rebuilds cannot fail on configuration (a bad length/segments
	// combination surfaces here, not in a background goroutine).
	if _, err := isax.NewSchema(seriesLen, opts.Core.Segments, opts.Core.CardBits); err != nil {
		return nil, err
	}
	if opts.Shards > shard.MaxShards {
		return nil, fmt.Errorf("live: shard count %d out of range [1,%d]", opts.Shards, shard.MaxShards)
	}
	ix := &Index{opts: opts, seriesLen: seriesLen}
	ix.cond = sync.NewCond(&ix.mu)
	ix.start(base)
	// A replay failure shuts the engine down and surfaces the error — a
	// live index must not come up silently missing acked appends.
	if err := ix.replayWAL(); err != nil {
		ix.eng.Close()
		return nil, err
	}
	return ix, nil
}

// start publishes the initial view around base (which may be nil) and
// spins up the query engine.
func (ix *Index) start(base *shard.Index) {
	baseLen := 0
	if base != nil {
		baseLen = base.Len()
		ix.gen.Store(1)
	}
	ix.view.Store(&view{
		base:    base,
		baseLen: baseLen,
		active:  delta.New(ix.seriesLen, ix.opts.BlockSeries),
	})
	ix.eng = engine.New(ix.opts.Core, ix.opts.Engine)
	engine.RegisterShards(ix.opts.Engine.Metrics, func() int {
		if base := ix.view.Load().base; base != nil {
			return base.NumShards()
		}
		return 0
	})
	if r := ix.opts.Metrics; r != nil {
		ix.rebuilds = r.Counter("messi_live_rebuilds_total",
			"Completed background generation rebuilds.")
		ix.rebuildFailures = r.Counter("messi_live_rebuild_failures_total",
			"Background generation rebuilds that failed (the frozen delta stays searchable and is retried).")
		ix.rebuildRetries = r.Counter("messi_rebuild_retries_total",
			"Background rebuilds relaunched by the bounded-backoff retry after a failure.")
		ix.rebuildDur = r.Histogram("messi_live_rebuild_seconds",
			"Wall time of background generation rebuilds (merge plus swap).")
		r.GaugeFunc("messi_live_delta_series",
			"Series buffered in the delta (frozen plus active), answered by exact scan.", func() float64 {
				v := ix.view.Load()
				return float64(v.frozenLen() + v.active.Len())
			})
		r.GaugeFunc("messi_live_base_series",
			"Series in the current immutable generation.", func() float64 {
				return float64(ix.view.Load().baseLen)
			})
		r.GaugeFunc("messi_live_generation",
			"Immutable generations built so far.", func() float64 {
				return float64(ix.gen.Load())
			})
	}
}

// replayWAL replays the configured WAL's uncovered tail into the
// active delta. Positions below the base (already covered by the
// loaded snapshot) are skipped; the remainder must form a contiguous
// run starting exactly at the base length, or recovery refuses — a gap
// means the snapshot predates the log's truncation point and acked
// series would be silently lost.
func (ix *Index) replayWAL() error {
	w := ix.opts.WAL
	if w == nil {
		return nil
	}
	v := ix.view.Load()
	base := int64(v.baseLen)
	if s := w.Start(); s > base {
		return fmt.Errorf("live: wal starts at position %d but the loaded snapshot covers only %d series (snapshot older than the wal's truncation point)", s, base)
	}
	if end := w.End(); end >= 0 && end < base {
		// The snapshot covers the whole log (it was saved after the
		// last logged append): drop the stale records and realign the
		// log to continue at the snapshot boundary.
		return w.Truncate(base)
	}
	expect := base
	err := w.Replay(base, func(pos int64, s []float32) error {
		if pos != expect {
			return fmt.Errorf("live: wal replay gap: got position %d, want %d", pos, expect)
		}
		if _, err := v.active.Append(s); err != nil {
			return err
		}
		expect++
		return nil
	})
	if err != nil {
		return err
	}
	// The replayed tail may already exceed the rebuild threshold.
	ix.mu.Lock()
	ix.maybeRebuildLocked()
	ix.mu.Unlock()
	return nil
}

// SeriesLen reports the length (points) of each indexed series.
func (ix *Index) SeriesLen() int { return ix.seriesLen }

// Len reports the number of series currently searchable.
func (ix *Index) Len() int {
	v := ix.view.Load()
	return v.activeStart() + v.active.Len()
}

// Generation reports how many immutable generations have been built.
func (ix *Index) Generation() int64 { return ix.gen.Load() }

// Engine returns the persistent query engine — pool and admission gate —
// every query of this index runs through.
func (ix *Index) Engine() *engine.Engine { return ix.eng }

// Base returns the current immutable generation — a shard group of one
// or more indexes — nil before the first rebuild of an initially-empty
// index. After a Flush with no concurrent appends it covers every series
// — the state a snapshot should capture.
func (ix *Index) Base() *shard.Index { return ix.view.Load().base }

// Shards reports the configured shard count per generation.
func (ix *Index) Shards() int { return ix.opts.Shards }

// Append adds one series (copied) and returns its stable position. The
// series is searchable as soon as Append returns. A series holding a NaN
// or an infinity is refused with core.ErrNonFinite before the WAL sees it.
func (ix *Index) Append(s []float32) (int, error) {
	if len(s) != ix.seriesLen {
		return 0, fmt.Errorf("live: %w: series length %d, index series length %d", core.ErrWrongLength, len(s), ix.seriesLen)
	}
	if err := core.CheckFinite(s); err != nil {
		return 0, fmt.Errorf("live: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	v := ix.view.Load()
	if w := ix.opts.WAL; w != nil {
		// Journal before the in-memory append: an ack implies the
		// series is recoverable. The WAL refusing (disk failure,
		// injected fault) fails the append with the delta untouched.
		ix.walRow[0] = s
		err := w.Append(int64(v.activeStart()+v.active.Len()), ix.walRow[:])
		ix.walRow[0] = nil
		if err != nil {
			return 0, fmt.Errorf("live: wal append: %w", err)
		}
	}
	idx, err := v.active.Append(s)
	if err != nil {
		return 0, err
	}
	ix.maybeRebuildLocked()
	return v.activeStart() + idx, nil
}

// AppendBatch adds a batch of series atomically (contiguous positions)
// and returns the position of the first.
func (ix *Index) AppendBatch(rows [][]float32) (int, error) {
	for i, r := range rows {
		if len(r) != ix.seriesLen {
			return 0, fmt.Errorf("live: batch series %d: %w: length %d, index series length %d", i, core.ErrWrongLength, len(r), ix.seriesLen)
		}
		if err := core.CheckFinite(r); err != nil {
			return 0, fmt.Errorf("live: batch series %d: %w", i, err)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	v := ix.view.Load()
	if w := ix.opts.WAL; w != nil && len(rows) > 0 {
		// One record per batch, so replay preserves batch atomicity.
		if err := w.Append(int64(v.activeStart()+v.active.Len()), rows); err != nil {
			return 0, fmt.Errorf("live: wal append: %w", err)
		}
	}
	idx, err := v.active.AppendBatch(rows)
	if err != nil {
		return 0, err
	}
	ix.maybeRebuildLocked()
	return v.activeStart() + idx, nil
}

// maybeRebuildLocked launches a background rebuild when the active delta
// has crossed the threshold (or a failed rebuild left a frozen snapshot
// behind) and none is in flight. Caller holds mu.
func (ix *Index) maybeRebuildLocked() {
	if ix.rebuilding || ix.closed {
		return
	}
	if ix.rebuildErr != nil {
		// The last rebuild failed; relaunching on every append (or from
		// rebuild's own tail) would retry a failing O(n) merge in a hot
		// loop. The backoff timer armed by scheduleRetryLocked is the
		// only relaunch path until a retry succeeds.
		return
	}
	v := ix.view.Load()
	if v.frozen == nil && v.active.Len() < ix.opts.RebuildThreshold {
		return
	}
	ix.startRebuildLocked()
}

// startRebuildLocked freezes the active delta (unless a frozen snapshot
// is already pending from a failed attempt) and launches the background
// merge. Caller holds mu with !rebuilding && !closed. It is a no-op when
// there is nothing to merge.
func (ix *Index) startRebuildLocked() {
	v := ix.view.Load()
	if v.frozen == nil {
		frozen := v.active.Snapshot()
		if frozen.Len() == 0 {
			return
		}
		v = &view{
			base:    v.base,
			baseLen: v.baseLen,
			frozen:  frozen,
			active:  delta.New(ix.seriesLen, ix.opts.BlockSeries),
		}
		ix.view.Store(v)
	}
	ix.rebuilding = true
	go ix.rebuild(v)
}

// rebuild merges the view's generation and frozen delta into a new
// immutable generation and swaps it in. It runs in its own goroutine;
// queries and appends proceed concurrently against the frozen view.
// With S shards the merged positions are cut into S contiguous ranges,
// and the S builds run concurrently.
func (ix *Index) rebuild(v *view) {
	start := time.Now()
	total := v.baseLen + v.frozen.Len()
	newIx, err := ix.mergeRecovered(v, total)
	ix.rebuildDur.Observe(time.Since(start))
	if err != nil {
		ix.rebuildFailures.Inc()
	} else {
		ix.rebuilds.Inc()
	}

	ix.mu.Lock()
	if err != nil {
		// Keep the frozen snapshot in the view: it stays searchable,
		// and the merge is retried by the backoff timer scheduled here
		// (and only by it — see maybeRebuildLocked).
		ix.rebuildErr = err
		ix.scheduleRetryLocked()
	} else {
		// One pointer store publishes the generation: a query searches the
		// view it loaded, old or new, and in both every series is in
		// exactly one of {generation, frozen delta, active delta}.
		cur := ix.view.Load() // only rebuilds store the view after freeze, and only one runs
		ix.view.Store(&view{base: newIx, baseLen: total, active: cur.active})
		ix.gen.Add(1)
		ix.rebuildErr = nil
		ix.retryAttempt = 0
		if ix.retryTimer != nil {
			ix.retryTimer.Stop()
			ix.retryTimer = nil
		}
	}
	ix.rebuilding = false
	ix.cond.Broadcast()
	// Appends during the rebuild may already have crossed the threshold.
	ix.maybeRebuildLocked()
	ix.mu.Unlock()
}

// mergeRecovered is mergeGeneration with a panic containment wall: a
// panicking rebuild (a bug, or an injected fault) must degrade into an
// ordinary rebuild failure — frozen delta still searchable, retry
// scheduled — never kill the process.
func (ix *Index) mergeRecovered(v *view, total int) (newIx *shard.Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			newIx, err = nil, fmt.Errorf("live: rebuild panicked: %v", r)
		}
	}()
	if err := fpRebuild.Hit(); err != nil {
		return nil, err
	}
	return ix.mergeGeneration(v, total)
}

// scheduleRetryLocked arms the backoff timer after a rebuild failure:
// RebuildRetryBase doubling per consecutive failure, capped at
// RebuildRetryMax. Caller holds mu.
func (ix *Index) scheduleRetryLocked() {
	if ix.closed {
		return
	}
	shift := ix.retryAttempt
	if shift > 16 { // avoid Duration overflow; 2^16×base is past any sane cap
		shift = 16
	}
	delay := ix.opts.RebuildRetryBase << shift
	if delay <= 0 || delay > ix.opts.RebuildRetryMax {
		delay = ix.opts.RebuildRetryMax
	}
	ix.retryAttempt++
	if ix.retryTimer != nil {
		ix.retryTimer.Stop()
	}
	ix.retryTimer = time.AfterFunc(delay, ix.retryRebuild)
}

// retryRebuild is the backoff timer's callback: relaunch the merge if
// it is still needed and nothing else already has.
func (ix *Index) retryRebuild() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.retryTimer = nil
	if ix.closed || ix.rebuilding {
		return
	}
	v := ix.view.Load()
	if v.frozen == nil && v.active.Len() < ix.opts.RebuildThreshold {
		return
	}
	ix.rebuildRetries.Inc()
	ix.startRebuildLocked()
}

// mergeGeneration builds the next generation over every position in
// order — the current generation's shards, each a contiguous range, then
// the frozen delta — copied into one allocation and partitioned by
// shard.Build, whose per-shard builds run concurrently with the
// construction workers divided among them.
func (ix *Index) mergeGeneration(v *view, total int) (*shard.Index, error) {
	// Collect the generation the previous rebuild retired before allocating
	// the next one. A generation is by far the heap's largest object and a
	// rebuild allocates a whole one, so the pacer, left alone, runs about
	// one cycle per rebuild, and how many retired generations sit beside
	// the live one at the peak depends only on where those cycles happen to
	// fall. Here the last one retired has long lost its readers.
	runtime.GC()
	flat := make([]float32, 0, total*ix.seriesLen)
	for s := 0; v.base != nil && s < v.base.NumShards(); s++ {
		if old := v.base.Shard(s); old != nil {
			flat = append(flat, old.Data.Data...)
		}
	}
	for j := 0; j < v.frozen.Len(); j++ {
		flat = append(flat, v.frozen.At(j)...)
	}
	col, err := series.NewCollection(flat, ix.seriesLen)
	if err != nil {
		return nil, err
	}
	return shard.Build(col, ix.opts.Shards, ix.opts.Core)
}

// Flush synchronously merges all buffered series into the immutable
// generation: it waits for any in-flight rebuild, then keeps rebuilding
// until the delta is empty (or a rebuild fails). After a Flush with no
// concurrent appends, Stats().DeltaSeries is 0.
func (ix *Index) Flush() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for {
		if ix.closed {
			return ErrClosed
		}
		if ix.rebuilding {
			ix.cond.Wait()
			continue
		}
		if ix.rebuildErr != nil {
			return ix.rebuildErr
		}
		v := ix.view.Load()
		if v.frozen == nil && v.active.Len() == 0 {
			return nil
		}
		ix.startRebuildLocked()
	}
}

// Close stops background rebuilds (waiting for an in-flight one) and
// shuts down the query pool. Appends and Flushes after Close return
// ErrClosed; queries return engine.ErrClosed.
func (ix *Index) Close() {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return
	}
	ix.closed = true
	if ix.retryTimer != nil {
		ix.retryTimer.Stop()
		ix.retryTimer = nil
	}
	for ix.rebuilding {
		ix.cond.Wait()
	}
	ix.mu.Unlock()
	ix.eng.Close()
}

// Stats describes the live index's current shape.
type Stats struct {
	Series      int          // total searchable series (base + delta)
	BaseSeries  int          // series in the current immutable generation
	DeltaSeries int          // series in the delta (frozen + active)
	Generation  int64        // immutable generations built so far
	Rebuilding  bool         // a background rebuild is in flight
	Shards      int          // index shards per generation (1 = unsharded)
	Tree        tree.Stats   // current generation's tree shape, aggregated over shards
	PerShard    []tree.Stats // per-shard tree shapes (nil when unsharded)
}

// Stats returns a point-in-time snapshot of the index shape.
func (ix *Index) Stats() Stats {
	v := ix.view.Load()
	ix.mu.Lock()
	rebuilding := ix.rebuilding
	ix.mu.Unlock()
	st := Stats{
		BaseSeries:  v.baseLen,
		DeltaSeries: v.frozenLen() + v.active.Len(),
		Generation:  ix.gen.Load(),
		Rebuilding:  rebuilding,
		Shards:      ix.opts.Shards,
	}
	st.Series = st.BaseSeries + st.DeltaSeries
	if v.base != nil {
		st.Tree = v.base.Stats()
		if ix.opts.Shards > 1 {
			st.PerShard = v.base.ShardStats()
		}
	}
	return st
}

// Series returns (a view of) the series at the given stable position.
// The caller must not modify it.
func (ix *Index) Series(pos int) ([]float32, error) {
	v := ix.view.Load()
	switch {
	case pos < 0:
		return nil, fmt.Errorf("live: negative position %d", pos)
	case pos < v.baseLen:
		return v.base.At(pos), nil
	case pos < v.activeStart():
		return v.frozen.At(pos - v.baseLen), nil
	default:
		snap := v.active.Snapshot()
		idx := pos - v.activeStart()
		if idx >= snap.Len() {
			return nil, fmt.Errorf("live: position %d out of range [0,%d)", pos, v.activeStart()+snap.Len())
		}
		return snap.At(idx), nil
	}
}

// deltaChunks lists the view's delta as the contiguous chunks a query
// scans, each with its global start position: the frozen snapshot first,
// then a fresh snapshot of the active buffer.
func (v *view) deltaChunks() ([]engine.Chunk, error) {
	var chunks []engine.Chunk
	add := func(snap *delta.Snapshot, start int) error {
		cols, err := snap.Collections()
		if err != nil {
			return err
		}
		for _, col := range cols {
			chunks = append(chunks, engine.Chunk{Data: col, Start: start})
			start += col.Count()
		}
		return nil
	}
	if v.frozen != nil {
		if err := add(v.frozen, v.baseLen); err != nil {
			return nil, err
		}
	}
	if err := add(v.active.Snapshot(), v.activeStart()); err != nil {
		return nil, err
	}
	return chunks, nil
}
