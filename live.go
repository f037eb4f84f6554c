package messi

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/isax"
	"repro/internal/metrics"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/wal"
)

// This file is the live index: a mutable MESSI index layered over the
// immutable core. Freshly appended series land in a delta buffer
// (internal/delta), while the bulk of the data lives in an immutable
// generation — a shard group of core indexes. Both are published in ONE
// immutable view: the generation plus the delta's chunks. A query loads
// the view and hands it to the persistent engine (internal/engine), which
// searches the generation's shards and the delta's chunks as members of
// one fan-out: the chunks are scanned exactly, in position order, in the
// same fan-out and into the same collector as the tree search, so what the
// delta holds both participates in the result and tightens tree pruning,
// and the other way round. A query reads nothing but the view: no lock, no
// buffer.
//
// When the active delta reaches LiveOptions.RebuildThreshold, a background
// rebuild merges it with the current generation into a new one using the
// paper's parallel construction, then publishes it with one pointer store.
// In-flight queries finish on the view they loaded; appends arriving
// during the rebuild go to a fresh active buffer and become part of the
// next generation. Neither queries nor appends ever block on a rebuild.
// Generations share one series array while it has room: a rebuild appends
// the frozen chunks past the current generation's series, where none of
// its readers look, and copies everything only into a new array a quarter
// larger than needed. Before it builds the index, a rebuild collects what
// its predecessor retired (one runtime.GC), so memory stays at the series
// array and two generations' indexes whatever the pacer's cycles would
// have left. A failed rebuild keeps its frozen delta searchable and is
// retried after rebuildRetryBase, doubling per consecutive failure up to
// rebuildRetryMax; a retry rewrites the same series in the same place.
//
// Positions are stable across rebuilds: series are numbered in append
// order (the initial collection first), and the merge preserves that
// order, so a position handed out by Append refers to the same series
// forever.
//
// The index owns its durability: it opens the write-ahead log, replays
// its uncovered tail into the delta at boot, journals every append before
// it reaches the delta, truncates the log's covered prefix after every
// Save, and closes it. Save is the only way it writes a snapshot.
//
// # View publication rules
//
//   - The view pointer is the single source of truth and the only place a
//     generation or a delta chunk is published (the engine holds none). A
//     query loads it once and uses that consistent (generation, delta
//     chunks) pair for its whole execution; it never re-loads mid-query.
//   - Every view is stored under mu. An append journals, writes the active
//     buffer, then stores a view whose delta is the frozen chunks plus the
//     buffer's chunks — before it returns, so an acked series is visible
//     to the next query, and a refused journal write publishes nothing.
//   - A published chunk never changes: the buffer only writes past the
//     series it has handed out, and each publication copies the frozen
//     prefix into a new slice (copy-on-write, as rcupublish checks).
//   - A freeze marks the view's delta chunks frozen and starts a fresh
//     active buffer. Only the rebuild goroutine swaps in a generation, and
//     only after it is fully built, keeping the chunks past the frozen
//     ones (their Starts are global), so readers observe either the old
//     complete view or the new complete view — never a partial one.
//   - At most one rebuild runs at a time; a threshold crossing during an
//     active rebuild marks it pending rather than starting a second.
//   - The frozen chunks stay queryable until the swap lands; the series
//     they hold are in exactly one of {frozen chunks, new generation} from
//     any reader's perspective, so answers neither miss nor duplicate a
//     series.

// fpRebuild fires inside the background generation merge, where crash
// tests inject rebuild failures (and panics) to exercise the frozen
// delta staying searchable and the bounded retry path.
var fpRebuild = fault.Register("live.rebuild")

const (
	// defaultRebuildThreshold is LiveOptions.RebuildThreshold's default.
	defaultRebuildThreshold = 100_000
	// Bounds of the backoff between retries of a failed rebuild.
	rebuildRetryBase = 100 * time.Millisecond
	rebuildRetryMax  = 10 * time.Second
)

// errClosed fails appends and flushes on a closed live index.
var errClosed = errors.New("live: index closed")

// EngineOptions configures the query engine a LiveIndex serves every
// query on (LiveOptions.Engine, Index.NewEngine): the worker budget its
// admission gate hands out as tokens, and the overload policy. Zero fields
// inherit from the index options. (It is an alias for the internal engine
// options; the field docs live there.)
type EngineOptions = engine.Options

// LiveOptions configures streaming ingestion for a LiveIndex. The zero
// value (or a nil *LiveOptions) selects the defaults.
type LiveOptions struct {
	// RebuildThreshold is the number of buffered (delta) series that
	// triggers a background generation rebuild. Default 100000.
	RebuildThreshold int
	// Engine configures the query parallelism and admission gate that
	// answer every query, tree search and delta scan alike. Its Metrics
	// registry is the index's one registry: besides the engine's, it
	// receives the live index's telemetry (delta occupancy, rebuild counts
	// and durations, generation number) and that of Save and LoadLive.
	Engine EngineOptions
	// WALDir, when non-empty, enables a write-ahead log in that
	// directory: every acked Append/AppendBatch is journaled before it
	// becomes searchable, and a restarted process replays the log tail
	// on boot (via NewLive/LoadLive with the same WALDir) so acked
	// series survive a crash even when they never made it into a
	// snapshot. A Save truncates the log's covered prefix. Empty (the
	// default) disables journaling.
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
	seriesLen   int
	normalize   bool
	coreOpts    core.Options // every generation's construction options
	shards      int          // shards per generation
	threshold   int          // active-delta series that trigger a rebuild
	blockSeries int          // delta block size, set only by tests; 0 selects delta.DefaultBlockSeries
	eng         *engine.Engine
	view        atomic.Pointer[view]
	active      *delta.Buffer // receives appends; touched only under mu
	wal         *wal.Log      // nil without LiveOptions.WALDir
	// store holds the series of the generation the last rebuild built, in
	// position order (nil until one has); its spare capacity is where the
	// next rebuild appends. Only rebuilds, which run one at a time, touch it.
	store []float32

	// Rebuild and snapshot telemetry (nil instruments without
	// LiveOptions.Engine.Metrics).
	rebuilds, rebuildFailures, rebuildRetries *metrics.Counter
	rebuildDur                                *metrics.Histogram
	snap                                      snapshotMetrics

	mu           sync.Mutex // serializes appends and view transitions
	cond         *sync.Cond // broadcast when a rebuild finishes
	rebuilding   bool
	closed       bool
	rebuildErr   error       // last rebuild failure, until a rebuild succeeds
	retryAttempt int         // consecutive rebuild failures
	retryTimer   *time.Timer // pending rebuild retry, nil when none

	saveMu sync.Mutex // serializes snapshot writes
}

// view is one immutable configuration of the index: the current
// generation and the delta's series as chunks, with global Starts, in
// position order. The leading frozen chunks are what a pending, in-flight
// or failed rebuild is merging; the rest are the active buffer's as of the
// last append. Queries load the whole view with one atomic read; the
// position ranges are [0, baseLen), [baseLen, end(frozen)) and
// [end(frozen), total()).
type view struct {
	base    *shard.Index   // nil before the first generation exists
	baseLen int            // series in base (0 when base == nil)
	gen     int64          // generations built so far (base is the gen-th)
	delta   []engine.Chunk // never written once published
	frozen  int            // leading delta chunks a rebuild is merging; 0 when none
}

// end returns the global position just past the first n delta chunks.
func (v *view) end(n int) int {
	if n == 0 {
		return v.baseLen
	}
	c := v.delta[n-1]
	return c.Start + c.Data.Count()
}

// total reports the number of series the view holds.
func (v *view) total() int { return v.end(len(v.delta)) }

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
	var base *shard.Index
	if col != nil && col.Count() > 0 {
		if normalize {
			col.ZNormalizeAll()
		}
		if base, err = shard.Build(col, opts.shards(), coreOpts); err != nil {
			return nil, err
		}
	}
	return openLive(seriesLen, base, normalize, coreOpts, opts.shards(), lopts)
}

// NewEngine serves the index behind an admission gate: a LiveIndex whose
// first generation is the index itself, with no WAL. Its answers are
// Index.Do's; worker and queue defaults come from the index's options.
// opts may be nil for the defaults. Close it when done.
//
//	eng := ix.NewEngine(nil)
//	defer eng.Close()
//	res, err := eng.Do(ctx, messi.SearchRequest{Query: q})
func (ix *Index) NewEngine(opts *EngineOptions) *LiveIndex {
	lopts := &LiveOptions{}
	if opts != nil {
		lopts.Engine = *opts
	}
	lix, err := openLive(ix.inner.SeriesLen(), ix.inner, ix.normalize, ix.inner.Opts(), ix.inner.NumShards(), lopts)
	if err != nil {
		// A built index is non-empty, its schema is valid and no WAL is
		// named: only a bug gets here.
		panic(fmt.Sprintf("messi: NewEngine: %v", err))
	}
	return lix
}

// openLive is the one constructor of a LiveIndex. base, when non-nil, is
// an already-built generation — fresh from shard.Build or loaded from a
// snapshot — published as generation 1 and retained without copying. Its
// structural options (segments, cardinality, leaf capacity) override
// coreOpts, so later generations keep its shape; runtime options
// (workers, queues) come from coreOpts. shards is the count every rebuild
// asks for: a base of fewer series has fewer shards, and the index grows
// into the count at its first rebuild past that many series. A nil base
// starts with no generation: the index answers from the delta alone until
// the first rebuild. With LiveOptions.WALDir set, the log is opened and
// its uncovered tail replayed into the delta before openLive returns.
func openLive(seriesLen int, base *shard.Index, normalize bool, coreOpts core.Options, shards int, lopts *LiveOptions) (*LiveIndex, error) {
	if lopts == nil {
		lopts = &LiveOptions{}
	}
	v := &view{}
	if base != nil {
		if base.SeriesLen() != seriesLen {
			return nil, fmt.Errorf("live: base holds series of length %d, want %d", base.SeriesLen(), seriesLen)
		}
		bo := base.Opts()
		coreOpts.Segments, coreOpts.CardBits, coreOpts.LeafCapacity = bo.Segments, bo.CardBits, bo.LeafCapacity
		v.base, v.baseLen, v.gen = base, base.Len(), 1
	}
	coreOpts = core.FillDefaults(coreOpts)
	// Validate the schema and shard count up front, so a rebuild cannot
	// fail on configuration in a background goroutine.
	if _, err := isax.NewSchema(seriesLen, coreOpts.Segments, coreOpts.CardBits); err != nil {
		return nil, err
	}
	if shards > shard.MaxShards {
		return nil, fmt.Errorf("live: shard count %d out of range [1,%d]", shards, shard.MaxShards)
	}
	ix := &LiveIndex{
		seriesLen: seriesLen,
		normalize: normalize,
		coreOpts:  coreOpts,
		shards:    shards,
		threshold: lopts.RebuildThreshold,
	}
	if ix.threshold <= 0 {
		ix.threshold = defaultRebuildThreshold
	}
	ix.cond = sync.NewCond(&ix.mu)
	ix.active = ix.newDelta()
	ix.view.Store(v)
	r := lopts.Engine.Metrics
	ix.eng = engine.New(coreOpts, lopts.Engine)
	// A rebuild that openWAL starts reads the counters and the histogram.
	ix.rebuilds = r.Counter("messi_live_rebuilds_total",
		"Completed background generation rebuilds.")
	ix.rebuildFailures = r.Counter("messi_live_rebuild_failures_total",
		"Background generation rebuilds that failed (the frozen delta stays searchable and is retried).")
	ix.rebuildRetries = r.Counter("messi_rebuild_retries_total",
		"Background rebuilds relaunched by the bounded-backoff retry after a failure.")
	ix.rebuildDur = r.Histogram("messi_live_rebuild_seconds",
		"Wall time of background generation rebuilds (merge plus swap).")
	ix.snap = newSnapshotMetrics(r)
	// A live index must not come up silently missing acked appends.
	if err := ix.openWAL(lopts); err != nil {
		ix.eng.Close()
		return nil, err
	}
	// The gauge funcs go in only now: the registry keeps the first
	// function under a name, so a refused boot's would outlive it.
	ix.registerGauges(r)
	return ix, nil
}

// registerGauges installs the gauges read from the index's view on r (nil
// disables them).
func (ix *LiveIndex) registerGauges(r *metrics.Registry) {
	engine.RegisterShards(r, func() int {
		if base := ix.view.Load().base; base != nil {
			return base.NumShards()
		}
		return 0
	})
	r.GaugeFunc("messi_live_delta_series",
		"Series buffered in the delta (frozen plus active), answered by exact scan.", func() float64 {
			v := ix.view.Load()
			return float64(v.total() - v.baseLen)
		})
	r.GaugeFunc("messi_live_base_series",
		"Series in the current immutable generation.", func() float64 {
			return float64(ix.view.Load().baseLen)
		})
	r.GaugeFunc("messi_live_generation",
		"Immutable generations built so far.", func() float64 {
			return float64(ix.view.Load().gen)
		})
}

// newDelta returns an empty delta buffer for the index's series.
func (ix *LiveIndex) newDelta() *delta.Buffer { return delta.New(ix.seriesLen, ix.blockSeries) }

// openWAL opens the write-ahead log lopts names, if any, and replays its
// uncovered tail into the active buffer, publishing it as the view's
// delta. Positions below the generation
// (covered by the loaded snapshot) are skipped; the rest must form a
// contiguous run starting exactly at the generation's length, or recovery
// refuses — a gap means the snapshot predates the log's truncation point
// and acked series would be silently lost. On failure the log is closed.
func (ix *LiveIndex) openWAL(lopts *LiveOptions) (err error) {
	if lopts.WALDir == "" {
		return nil
	}
	policy, err := wal.ParseSyncPolicy(lopts.WALSync)
	if err != nil {
		return err
	}
	w, err := wal.Open(lopts.WALDir, ix.seriesLen, &wal.Options{SegmentBytes: lopts.WALSegmentBytes, Sync: policy})
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	base := int64(ix.view.Load().baseLen)
	if s := w.Start(); s > base {
		return fmt.Errorf("live: wal starts at position %d but the loaded snapshot covers only %d series (snapshot older than the wal's truncation point)", s, base)
	}
	if end := w.End(); end >= 0 && end < base {
		// The snapshot covers the whole log (it was saved after the last
		// logged append): drop the stale records and realign the log to
		// continue at the snapshot boundary.
		err = w.Truncate(base)
	} else {
		expect := base
		err = w.Replay(base, func(pos int64, s []float32) error {
			if pos != expect {
				return fmt.Errorf("live: wal replay gap: got position %d, want %d", pos, expect)
			}
			expect++
			_, err := ix.active.AppendBatch([][]float32{s})
			return err
		})
	}
	if err != nil {
		return err
	}
	ix.wal = w
	ix.publishLocked()
	// The replayed tail may already exceed the rebuild threshold.
	ix.maybeRebuildLocked()
	return nil
}

// Append adds one series (copied) and returns its stable position: it is
// AppendBatch of one row. The series is searchable as soon as Append
// returns, before any rebuild. A series holding a NaN or an infinity
// fails with ErrNonFinite.
func (ix *LiveIndex) Append(s []float32) (int, error) {
	return ix.AppendBatch([][]float32{s})
}

// AppendBatch adds a batch of series (copied) atomically, returning the
// position of the first; the batch occupies contiguous positions and is
// published to queries before AppendBatch returns. With a WAL the batch is
// journaled as one record before it reaches the delta, so an ack implies
// the batch is recoverable and replay preserves its atomicity; a refused
// journal write fails the batch with the delta untouched. One non-finite
// value anywhere fails the whole batch with ErrNonFinite, before the WAL
// sees it.
func (ix *LiveIndex) AppendBatch(rows [][]float32) (int, error) {
	if ix.normalize {
		normalized := make([][]float32, len(rows))
		for i, r := range rows {
			normalized[i] = series.ZNormalized(r)
		}
		rows = normalized
	}
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
		return 0, errClosed
	}
	first := ix.view.Load().total()
	if ix.wal != nil && len(rows) > 0 {
		if err := ix.wal.Append(int64(first), rows); err != nil {
			return 0, fmt.Errorf("live: wal append: %w", err)
		}
	}
	if _, err := ix.active.AppendBatch(rows); err != nil {
		return 0, err
	}
	ix.publishLocked()
	ix.maybeRebuildLocked()
	return first, nil
}

// publishLocked stores a view whose delta is the frozen chunks plus the
// active buffer's: the one place appended series become searchable. The
// frozen prefix is capped, so the new view's delta is always a fresh
// slice. Caller holds mu.
func (ix *LiveIndex) publishLocked() {
	v := ix.view.Load()
	cols := ix.active.Chunks()
	d := slices.Grow(v.delta[:v.frozen:v.frozen], len(cols))
	start := v.end(v.frozen)
	for _, col := range cols {
		d = append(d, engine.Chunk{Data: col, Start: start})
		start += col.Count()
	}
	ix.view.Store(&view{base: v.base, baseLen: v.baseLen, gen: v.gen, delta: d, frozen: v.frozen})
}

// rebuildDueLocked reports whether the view holds frozen chunks (a failed
// rebuild left them behind) or an active delta at the threshold. Caller
// holds mu.
func (ix *LiveIndex) rebuildDueLocked() bool {
	v := ix.view.Load()
	return v.frozen > 0 || v.total()-v.end(v.frozen) >= ix.threshold
}

// maybeRebuildLocked launches a background rebuild when one is due and
// none is in flight. After a failure only the backoff timer relaunches:
// retrying on every append would run a failing O(n) merge in a hot loop.
// Caller holds mu.
func (ix *LiveIndex) maybeRebuildLocked() {
	if ix.rebuilding || ix.closed || ix.rebuildErr != nil {
		return
	}
	if ix.rebuildDueLocked() {
		ix.startRebuildLocked()
	}
}

// startRebuildLocked freezes the view's delta chunks and starts a fresh
// active buffer (unless frozen chunks are already pending from a failed
// attempt), then launches the background merge. Caller holds mu with
// !rebuilding && !closed. It is a no-op when there is nothing to merge.
func (ix *LiveIndex) startRebuildLocked() {
	v := ix.view.Load()
	if v.frozen == 0 {
		if len(v.delta) == 0 {
			return
		}
		v = &view{base: v.base, baseLen: v.baseLen, gen: v.gen, delta: v.delta, frozen: len(v.delta)}
		ix.view.Store(v)
		ix.active = ix.newDelta()
	}
	ix.rebuilding = true
	go ix.rebuild(v)
}

// rebuild merges the view's generation and frozen chunks into a new
// generation and publishes it. It runs in its own goroutine; queries and
// appends proceed meanwhile against views holding the frozen chunks.
func (ix *LiveIndex) rebuild(v *view) {
	start := time.Now()
	total := v.end(v.frozen)
	next, err := ix.merge(v, total)
	ix.rebuildDur.Observe(time.Since(start))
	if err != nil {
		ix.rebuildFailures.Inc()
	} else {
		ix.rebuilds.Inc()
	}

	ix.mu.Lock()
	if err != nil {
		// The frozen chunks stay in the view, searchable, until the
		// backoff timer armed here retries the merge.
		ix.rebuildErr = err
		ix.scheduleRetryLocked()
	} else {
		// One pointer store publishes the generation: a query searches the
		// view it loaded, old or new, and in both every series is in
		// exactly one of {generation, delta chunks}. Appends since the
		// freeze kept v.frozen, and only one rebuild runs. The chunks past
		// the frozen ones are cloned, so the merged ones become garbage.
		cur := ix.view.Load()
		ix.view.Store(&view{base: next, baseLen: total, gen: cur.gen + 1, delta: slices.Clone(cur.delta[cur.frozen:])})
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

// merge builds the next generation over every position in order — the
// current generation's shards, each a contiguous range, then the frozen
// chunks — in one array partitioned by shard.Build, whose per-shard builds
// run concurrently. The array is the current generation's own (ix.store)
// when it has room: the frozen chunks go into its spare capacity, which no
// reader of that generation reads, and nothing is copied. Otherwise every
// series is copied into a new array with a quarter to spare, so a rebuild
// allocates a generation's series only once per quarter of growth. A
// panicking merge (a bug, or an injected fault) degrades into an ordinary
// rebuild failure, never kills the process.
func (ix *LiveIndex) merge(v *view, total int) (next *shard.Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			next, err = nil, fmt.Errorf("live: rebuild panicked: %v", r)
		}
	}()
	L, flat := ix.seriesLen, ix.store
	if len(flat) != v.baseLen*L || cap(flat) < total*L {
		flat = make([]float32, 0, total*L+total*L/4)
		for s := 0; v.base != nil && s < v.base.NumShards(); s++ {
			flat = append(flat, v.base.Shard(s).Data.Data...)
		}
	}
	for _, c := range v.delta[:v.frozen] {
		flat = append(flat, c.Data.Data...)
	}
	if err := fpRebuild.Hit(); err != nil {
		return nil, err
	}
	// Collect what the previous rebuild retired before building the next
	// generation's index, so the peak never holds more than the live
	// generation's index beside the one being built, wherever the pacer's
	// cycles fall. Here the last one retired has long lost its readers.
	// Not before the copy: a grown array placed in pages a collection has
	// just freed is zeroed whole, its spare quarter made resident or not
	// by where the allocator puts it.
	runtime.GC()
	col, err := series.NewCollection(flat, L)
	if err != nil {
		return nil, err
	}
	if next, err = shard.Build(col, ix.shards, ix.coreOpts); err == nil {
		ix.store = flat
	}
	return next, err
}

// scheduleRetryLocked arms the backoff timer after a rebuild failure:
// rebuildRetryBase doubling per consecutive failure, capped at
// rebuildRetryMax. Caller holds mu.
func (ix *LiveIndex) scheduleRetryLocked() {
	if ix.closed {
		return
	}
	delay := rebuildRetryMax
	if ix.retryAttempt < 16 { // 2^16 × base is past the cap
		delay = min(rebuildRetryBase<<ix.retryAttempt, rebuildRetryMax)
	}
	ix.retryAttempt++
	if ix.retryTimer != nil {
		ix.retryTimer.Stop()
	}
	ix.retryTimer = time.AfterFunc(delay, ix.retryRebuild)
}

// retryRebuild is the backoff timer's callback: relaunch the merge if
// it is still needed and nothing else already has.
func (ix *LiveIndex) retryRebuild() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.retryTimer = nil
	if ix.closed || ix.rebuilding {
		return
	}
	if ix.rebuildDueLocked() {
		ix.rebuildRetries.Inc()
		ix.startRebuildLocked()
	}
}

// Flush synchronously merges every series appended before the call into
// the immutable generation, while later appends proceed; afterwards
// (absent concurrent appends) the delta is empty. It waits for an
// in-flight rebuild and starts another until the generation covers the
// index's length at entry, or a rebuild fails. It writes no snapshot.
func (ix *LiveIndex) Flush() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	target := ix.Len()
	for {
		switch {
		case ix.closed:
			return errClosed
		case ix.view.Load().baseLen >= target:
			return nil
		case ix.rebuilding:
			ix.cond.Wait()
		case ix.rebuildErr != nil:
			return ix.rebuildErr
		default:
			ix.startRebuildLocked()
		}
	}
}

// Close stops background rebuilds (waiting for an in-flight one), waits
// for in-flight queries, then closes the WAL (when one is configured).
// Appends, flushes and queries after Close fail; a second Close does
// nothing and returns nil. Close writes no snapshot: call Save first to
// keep the series appended since the last one (with a WAL they replay on
// the next boot anyway).
func (ix *LiveIndex) Close() error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil
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
	if ix.wal != nil {
		if err := ix.wal.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("messi: wal close: %w", err)
		}
	}
	return nil
}

// Series returns (a view of) the series at the given stable position.
// Callers must not modify it.
func (ix *LiveIndex) Series(position int) ([]float32, error) {
	v := ix.view.Load()
	switch {
	case position < 0:
		return nil, fmt.Errorf("live: negative position %d", position)
	case position < v.baseLen:
		return v.base.At(position), nil
	case position < v.total():
		// The chunk holding position is the last one starting at or before it.
		c := v.delta[sort.Search(len(v.delta), func(i int) bool { return v.delta[i].Start > position })-1]
		return c.Data.At(position - c.Start), nil
	}
	return nil, fmt.Errorf("live: position %d out of range [0,%d)", position, v.total())
}

// Len reports the number of searchable series.
func (ix *LiveIndex) Len() int { return ix.view.Load().total() }

// SeriesLen reports the length (points) of each indexed series.
func (ix *LiveIndex) SeriesLen() int { return ix.seriesLen }

// EngineOptions returns the effective (defaulted) options of the
// embedded query engine — the admission-gate configuration in force.
func (ix *LiveIndex) EngineOptions() EngineOptions { return ix.eng.Options() }

// LiveStats describes a live index's current shape.
type LiveStats struct {
	Series      int     // total searchable series (base + delta)
	BaseSeries  int     // series in the current immutable generation
	DeltaSeries int     // series buffered in the delta
	Generation  int64   // immutable generations built so far
	Rebuilding  bool    // a background rebuild is in flight
	Shards      int     // shards every rebuild asks for (1 = unsharded)
	Index       Stats   // current generation's tree shape, aggregated over shards
	PerShard    []Stats // per-shard tree shapes of the generation (nil with one shard); fewer than Shards while it holds fewer series
}

// Stats returns a point-in-time snapshot of the index shape.
func (ix *LiveIndex) Stats() LiveStats {
	v := ix.view.Load()
	ix.mu.Lock()
	rebuilding := ix.rebuilding
	ix.mu.Unlock()
	st := LiveStats{
		BaseSeries:  v.baseLen,
		DeltaSeries: v.total() - v.baseLen,
		Generation:  v.gen,
		Rebuilding:  rebuilding,
		Shards:      ix.shards,
	}
	st.Series = st.BaseSeries + st.DeltaSeries
	if v.base != nil {
		gen := &Index{inner: v.base}
		st.Index, st.PerShard = gen.Stats(), gen.ShardStats()
	}
	return st
}

// search serves one core request over ONE view: the engine searches the
// generation's shards and the delta's chunks as members of one fan-out.
// The delta is always scanned exactly — it is small by construction, so
// even approximate and deadline requests afford it — and with no
// generation yet that scan IS the whole search. An empty view fails with
// core.ErrEmptyIndex.
func (ix *LiveIndex) search(req core.Request) (core.Result, error) {
	v := ix.view.Load()
	return ix.eng.Do(engine.View{Base: v.base, Delta: v.delta}, req)
}
