package messi

import (
	"errors"
	"fmt"

	"repro/internal/live"
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
// On unix hosts the member files are memory-mapped and the loaded index
// aliases the (copy-on-write, page-cache-backed) mappings for as long as
// the process lives — the intended shape for a server that loads one
// snapshot at boot. A process that loads snapshots repeatedly
// accumulates mappings with every Load.
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
// live-index behaviour (including SnapshotPath for automatic
// re-snapshots on Flush and Close).
// The snapshot's shard count carries over, so appends keep the same
// round-robin routing.
// With LiveOptions.WALDir set, the log tail beyond the snapshot is
// replayed into the delta before LoadLive returns, so a crashed server
// restarts with every acked append searchable again.
func LoadLive(path string, opts *Options, lopts *LiveOptions) (*LiveIndex, error) {
	base, normalize, err := persist.ReadDir(path)
	if err != nil {
		return nil, err
	}
	coreOpts, _, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	w, err := openWAL(lopts, base.SeriesLen())
	if err != nil {
		return nil, err
	}
	lo := lopts.toLive(coreOpts, opts.shards())
	lo.WAL = w
	inner, err := live.NewFromIndex(base, lo)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return nil, err
	}
	return &LiveIndex{inner: inner, normalize: normalize, snapshotPath: snapshotPath(lopts), wal: w}, nil
}

// Save snapshots the live index to path: it first Flushes (merging all
// buffered series into the immutable generation), then writes that
// generation atomically. Concurrent appends arriving after the flush are
// not part of the snapshot.
func (ix *LiveIndex) Save(path string) error {
	if err := ix.inner.Flush(); err != nil {
		return err
	}
	return ix.saveBase(path)
}

// saveBase persists the current immutable generation as-is (no flush)
// as a snapshot directory. With a WAL configured, a successful save
// truncates the log's covered prefix — every journaled position below the
// saved generation's length is now durable in the snapshot, so replay
// never needs it again.
func (ix *LiveIndex) saveBase(path string) error {
	base := ix.inner.Base()
	if base == nil {
		return ErrNoGeneration
	}
	covered := int64(base.Len())
	if err := persist.WriteDir(path, base, ix.normalize); err != nil {
		return err
	}
	if ix.wal != nil {
		if terr := ix.wal.Truncate(covered); terr != nil && !errors.Is(terr, wal.ErrClosed) {
			return fmt.Errorf("messi: wal truncate after snapshot: %w", terr)
		}
	}
	return nil
}

func snapshotPath(lopts *LiveOptions) string {
	if lopts == nil {
		return ""
	}
	return lopts.SnapshotPath
}
