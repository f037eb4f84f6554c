// Package delta provides the write-side buffer of the live index: a
// concurrent, append-only store of equal-length data series whose contents
// can be handed out as immutable chunks while appends continue.
//
// Storage is block-based: series are copied into fixed-capacity flat
// blocks, and a new block is allocated when the current one fills. Blocks
// are never moved or resized once allocated, and an append only writes
// past the series already handed out, so a chunk list returned by Chunks
// stays valid and unchanged while appends continue. Each full block is
// wrapped as a collection once, when it fills, so handing out the chunks
// costs the same whatever the buffer holds.
//
// The buffer deliberately has no index structure: the live index publishes
// its chunks in the view every query reads, and answers queries over them
// by an exact position-order scan (core.Scan, one engine work unit per
// chunk), which is fast at delta scale. When the delta grows past the
// rebuild threshold its chunks are merged into the next immutable
// generation and the buffer is discarded.
package delta

import (
	"fmt"
	"sync"

	"repro/internal/series"
)

// DefaultBlockSeries is the default number of series per storage block.
const DefaultBlockSeries = 1024

// Buffer is a concurrent append-only series store. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Buffer struct {
	length   int // points per series
	blockCap int // series per block

	mu    sync.Mutex
	full  []*series.Collection // the filled blocks, in order; append-only
	block *series.Collection   // the block being filled, nil when none
	n     int                  // series stored in block
	tail  *series.Collection   // block's first n series, nil when n == 0
}

// New returns an empty buffer for series of the given length. blockSeries
// is the block granularity (<= 0 selects DefaultBlockSeries).
func New(seriesLen, blockSeries int) *Buffer {
	if blockSeries <= 0 {
		blockSeries = DefaultBlockSeries
	}
	return &Buffer{length: seriesLen, blockCap: blockSeries}
}

// AppendBatch copies a batch of series atomically (one lock acquisition,
// contiguous indices) and returns the index of the first. All series must
// have the buffer's length; on a length mismatch nothing is appended.
func (b *Buffer) AppendBatch(rows [][]float32) (int, error) {
	for i, r := range rows {
		if len(r) != b.length {
			return 0, fmt.Errorf("delta: batch series %d has length %d, buffer series length %d", i, len(r), b.length)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := len(b.full)*b.blockCap + b.n
	for _, r := range rows {
		if b.block == nil {
			// Fails only for a non-positive series length, and then on a
			// batch's first row: nothing has been appended.
			block, err := series.NewEmptyCollection(b.blockCap, b.length)
			if err != nil {
				return 0, err
			}
			b.block = block
		}
		copy(b.block.At(b.n), r)
		b.n++
		if b.n == b.blockCap {
			b.full = append(b.full, b.block)
			b.block, b.n = nil, 0
		}
	}
	b.tail = nil
	if b.n > 0 {
		tail, err := series.NewCollection(b.block.Data[:b.n*b.length], b.length)
		if err != nil {
			return 0, err
		}
		b.tail = tail
	}
	return first, nil
}

// Chunks returns the buffer's series as collections in position order —
// one per occupied block, of blockSeries series each but the last — so a
// query scans delta data without copying it. The list and its collections
// are immutable: later appends do not change them.
func (b *Buffer) Chunks() []*series.Collection {
	b.mu.Lock()
	defer b.mu.Unlock()
	chunks := b.full[:len(b.full):len(b.full)]
	if b.tail != nil {
		chunks = append(chunks, b.tail)
	}
	return chunks
}
