package messi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/wal"
)

// This file is the public face of the snapshot subsystem
// (internal/persist): saving a built index to a versioned, checksummed
// snapshot directory and loading it back in a fraction of the build
// time. A loaded index answers every query identically to the freshly
// built one.
//
//	ix, _ := messi.BuildFlat(data, 256, nil)
//	_ = ix.Save("index.snap")
//	...
//	ix2, _ := messi.Load("index.snap") // seconds, not an O(n) rebuild
//
// Snapshots record the index options that shape the structure (segments,
// cardinality, leaf capacity), the shard count and the normalization
// flag; runtime tuning (worker counts, queue counts) is not persisted and
// takes the usual defaults on load.
//
// A live index records its Save and LoadLive in the six messi_snapshot_*
// instruments of its registry (LiveOptions.Engine.Metrics); Index.Save
// and Load record nothing.

// ErrNoGeneration is returned when saving a LiveIndex that has no
// immutable generation to snapshot (nothing was ever indexed).
var ErrNoGeneration = errors.New("messi: live index has no generation to snapshot")

// Save writes the index to path as a snapshot DIRECTORY: one member file
// per shard (an unsharded index has one) plus a checksummed MANIFEST,
// written concurrently with the manifest last, so a failed or crashed
// save leaves any previous snapshot at path loadable.
func (ix *Index) Save(path string) error {
	return persist.WriteDir(path, ix.inner, ix.normalize)
}

// Load reads a snapshot directory written by Save (or messi-gen
// -snapshot) and restores the index, shard count included, without
// re-running construction. Corrupt or incompatible snapshots fail with a
// descriptive error rather than a corrupt index: the manifest and every
// section of every member file are checksummed. A bare single-file
// snapshot from before snapshots were directories fails with
// persist.ErrVersion and must be regenerated.
//
// Every member file is decoded by one decoder from one image of the
// file, which checks the tree's structure and node summaries as well as
// the checksums. On unix hosts the image is a memory mapping, and the
// loaded index aliases the (copy-on-write, page-cache-backed) mappings
// for as long as the process lives — the intended shape for a server
// that loads one snapshot at boot. A process that loads snapshots
// repeatedly accumulates mappings with every successful Load; a failed
// one unmaps what it mapped.
func Load(path string) (*Index, error) {
	inner, normalize, err := persist.ReadDir(path)
	if err != nil {
		return nil, err
	}
	return newIndex(inner, normalize), nil
}

// LoadLive boots a mutable live index from a snapshot: the snapshot
// becomes the first immutable generation and appends accumulate on top,
// exactly as if the original index had kept running. Structural options
// are taken from the snapshot; opts supplies runtime tuning and lopts the
// live-index behaviour. The load, failed or not, is recorded on
// lopts.Engine.Metrics.
// The snapshot's shard count carries over: later generations are cut
// into as many contiguous position ranges — unless opts asks for more
// shards than the snapshot holds series, which makes it a snapshot cut
// before the collection could fill them: later generations then grow
// into opts.Shards, as the same data booted from a dataset would.
// With LiveOptions.WALDir set, the log tail beyond the snapshot is
// replayed into the delta before LoadLive returns, so a crashed server
// restarts with every acked append searchable again.
func LoadLive(path string, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	var r *Metrics
	if lopts != nil {
		r = lopts.Engine.Metrics
	}
	m := newSnapshotMetrics(r)
	start := time.Now()
	base, normalize, err := persist.ReadDir(path)
	observe(m.loadSeconds, m.loadBytes, m.loadFailures, path, start, err)
	if err != nil {
		return nil, err
	}
	coreOpts, _, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	shards := base.NumShards()
	if opts != nil && base.Len() < opts.Shards { // members ≤ series < opts.Shards
		shards = opts.Shards
	}
	return openLive(base.SeriesLen(), base, normalize, coreOpts, shards, lopts)
}

// Save snapshots the live index to path, the only way it writes one: it
// first merges every series appended before the call into the immutable
// generation, as Flush does, then writes that generation atomically.
// Appends arriving meanwhile do not hold it up; the snapshot holds those
// the merge happened to cover. With a WAL, a successful write truncates
// the log's covered prefix — every journaled position below the saved
// generation's length is now durable in the snapshot, so replay never
// needs it again.
func (ix *LiveIndex) Save(path string) error {
	if err := ix.Flush(); err != nil {
		return err
	}
	ix.saveMu.Lock()
	defer ix.saveMu.Unlock()
	v := ix.view.Load()
	if v.base == nil {
		return ErrNoGeneration
	}
	start := time.Now()
	err := persist.WriteDir(path, v.base, ix.normalize)
	observe(ix.snap.saveSeconds, ix.snap.saveBytes, ix.snap.saveFailures, path, start, err)
	if err != nil {
		return err
	}
	if ix.wal != nil {
		if err := ix.wal.Truncate(int64(v.baseLen)); err != nil && !errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("messi: wal truncate after snapshot: %w", err)
		}
	}
	return nil
}

// snapshotMetrics is a live index's snapshot I/O telemetry: save and load
// wall time, bytes written and read, and failures.
type snapshotMetrics struct {
	saveSeconds, loadSeconds                         *metrics.Histogram
	saveBytes, loadBytes, saveFailures, loadFailures *metrics.Counter
}

// newSnapshotMetrics registers the snapshot instruments on r (nil r → nil
// instruments, recording nothing).
func newSnapshotMetrics(r *Metrics) snapshotMetrics {
	return snapshotMetrics{
		saveSeconds: r.Histogram("messi_snapshot_save_seconds",
			"Wall time of snapshot directory saves."),
		loadSeconds: r.Histogram("messi_snapshot_load_seconds",
			"Wall time of snapshot directory loads."),
		saveBytes: r.Counter("messi_snapshot_save_bytes_total",
			"Cumulative bytes written by successful snapshot saves."),
		loadBytes: r.Counter("messi_snapshot_load_bytes_total",
			"Cumulative bytes read by successful snapshot loads."),
		saveFailures: r.Counter("messi_snapshot_save_failures_total",
			"Snapshot saves that returned an error."),
		loadFailures: r.Counter("messi_snapshot_load_failures_total",
			"Snapshot loads that returned an error."),
	}
}

// observe records one snapshot save or load of dir that began at start:
// a failure, or the wall time and the directory's size.
func observe(dur *metrics.Histogram, bytes, failures *metrics.Counter, dir string, start time.Time, err error) {
	if err != nil {
		failures.Inc()
		return
	}
	dur.Observe(time.Since(start))
	bytes.Add(persist.Size(dir))
}
