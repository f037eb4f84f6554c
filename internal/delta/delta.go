// Package delta provides the write-side buffer of the live index: a
// concurrent, append-only store of equal-length data series that supports
// consistent point-in-time snapshots while appends continue.
//
// Storage is block-based: series are copied into fixed-capacity flat
// blocks, and a new block is allocated when the current one fills. Blocks
// are never moved or resized once allocated, so a snapshot taken at count
// n can read series [0, n) without synchronizing with later appends — the
// only shared mutable state is the block list and the published count,
// both captured under the buffer's mutex when the snapshot is taken.
//
// The buffer deliberately has no index structure: the live index answers
// queries over it by an exact position-order scan of its chunks (core.Scan,
// one engine work unit per chunk), which is fast at delta scale. When the delta grows
// past the rebuild threshold its contents are merged into the next
// immutable generation and the buffer is discarded.
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

	mu     sync.Mutex
	blocks [][]float32 // each block is flat row-major storage
	count  int         // complete, published series
}

// New returns an empty buffer for series of the given length. blockSeries
// is the block granularity (<= 0 selects DefaultBlockSeries).
func New(seriesLen, blockSeries int) *Buffer {
	if blockSeries <= 0 {
		blockSeries = DefaultBlockSeries
	}
	return &Buffer{length: seriesLen, blockCap: blockSeries}
}

// Len reports the number of series currently stored.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
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
	first := b.count
	for _, r := range rows {
		within := b.count % b.blockCap
		if within == 0 {
			b.blocks = append(b.blocks, make([]float32, b.blockCap*b.length))
		}
		copy(b.blocks[len(b.blocks)-1][within*b.length:], r)
		b.count++
	}
	return first, nil
}

// Snapshot captures a consistent point-in-time view of the buffer. The
// snapshot remains valid (and immutable) while appends continue: blocks
// are append-only and the snapshot only exposes series below its count.
func (b *Buffer) Snapshot() *Snapshot {
	b.mu.Lock()
	count := b.count
	blocks := make([][]float32, len(b.blocks))
	copy(blocks, b.blocks)
	b.mu.Unlock()
	return &Snapshot{blocks: blocks, count: count, length: b.length, blockCap: b.blockCap}
}

// Snapshot is an immutable view of a Buffer at some count. It is safe for
// concurrent use by any number of readers.
type Snapshot struct {
	blocks   [][]float32
	count    int
	length   int
	blockCap int
}

// Len reports the number of series in the snapshot.
func (s *Snapshot) Len() int { return s.count }

// At returns series i as a view into block storage (no copy). The caller
// must not modify it.
func (s *Snapshot) At(i int) []float32 {
	block := s.blocks[i/s.blockCap]
	within := i % s.blockCap
	return block[within*s.length : (within+1)*s.length : (within+1)*s.length]
}

// Collections exposes the snapshot as contiguous series.Collection chunks
// (one per occupied block, in order), so collection-based algorithms — a
// query's position-order scans — run over delta data without copying.
// Chunk c starts at series c*blockCap of the snapshot.
func (s *Snapshot) Collections() ([]*series.Collection, error) {
	var cols []*series.Collection
	remaining := s.count
	for _, block := range s.blocks {
		if remaining <= 0 {
			break
		}
		n := remaining
		if n > s.blockCap {
			n = s.blockCap
		}
		col, err := series.NewCollection(block[:n*s.length], s.length)
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		remaining -= n
	}
	return cols, nil
}
