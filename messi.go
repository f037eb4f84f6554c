// Package messi is a pure-Go implementation of MESSI, the in-memory data
// series index of Peng, Fatourou and Palpanas (ICDE 2020): an iSAX tree
// built and queried by parallel workers, answering exact 1-NN (and k-NN)
// similarity queries under Euclidean distance or constrained Dynamic Time
// Warping.
//
// # Quick start
//
//	data := messi.RandomWalk(100_000, 256, 1) // or your own flat []float32
//	ix, err := messi.BuildFlat(data, 256, nil)
//	if err != nil { ... }
//	res, err := ix.Do(ctx, messi.SearchRequest{Query: query}) // exact nearest neighbor
//	if err != nil { ... }
//	fmt.Println(res.Best().Position, res.Best().Distance)
//
// Do is the one query method of Index, LiveIndex and Engine; the request
// selects k-NN (K), constrained DTW (DTW, Window) and the quality mode
// (approximate, ε-bounded, deadline-bounded). The index is immutable after
// Build and safe for concurrent queries.
//
// # Distances
//
// Every Result carries true (non-squared) distances. Internally the
// library works with squared distances; Match.Distance is the square root
// of the internal value. Data series are compared as-is: if you want the
// standard z-normalized similarity semantics, either normalize your data
// yourself or set Options.Normalize.
package messi

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/tree"
)

// Options configures index construction and default query parallelism.
// The zero value (or a nil *Options) selects the paper's defaults:
// 16 segments, 256-symbol alphabet, 2000-series leaves, 20K-series chunks,
// 24 index workers, 48 search workers, 24 priority queues.
type Options struct {
	// Segments is the number of PAA segments per iSAX word (w). The
	// series length must be a multiple of it. Default 16.
	Segments int
	// Cardinality is the alphabet size per segment; must be a power of
	// two up to 256. Default 256.
	Cardinality int
	// LeafCapacity is the maximum number of series per leaf before it
	// splits. Default 2000.
	LeafCapacity int
	// ChunkSize is the number of series per work unit of the
	// summarization phase; a collection of at most one chunk is
	// summarized by one worker. Default 20000.
	ChunkSize int
	// IndexWorkers (Nw) is the number of construction goroutines. It
	// changes how fast an index builds, never what is built: every worker
	// count yields the same tree and the same snapshot bytes. Default 24.
	IndexWorkers int
	// SearchWorkers (Ns) is the number of query goroutines. Default 48.
	SearchWorkers int
	// QueueCount (Nq) is the number of shared priority queues used
	// during query answering; 1 reproduces the paper's MESSI-sq variant.
	// Default 24.
	QueueCount int
	// Normalize, when true, z-normalizes every series in place during
	// Build and z-normalizes (a copy of) every query.
	Normalize bool
	// Shards partitions the collection across this many independent index
	// shards, built concurrently and queried by a fan-out that threads one
	// shared pruning bound — answers are identical to an unsharded index.
	// Series route round-robin (global position p lives in shard p%S).
	// 0 or 1 builds a single tree. With Shards > 1 even BuildFlat copies
	// each series into its shard's storage. Default 1.
	Shards int
}

// shards returns the effective shard count.
func (o *Options) shards() int {
	if o == nil || o.Shards <= 0 {
		return 1
	}
	return o.Shards
}

func (o *Options) toCore() (core.Options, bool, error) {
	if o == nil {
		return core.Options{}, false, nil
	}
	cardBits := 0
	if c := o.Cardinality; c != 0 {
		if c < 2 || c > 256 || bits.OnesCount(uint(c)) != 1 {
			return core.Options{}, false, fmt.Errorf("messi: cardinality %d is not a power of two in [2,256]", c)
		}
		cardBits = bits.TrailingZeros(uint(c))
	}
	return core.Options{
		Segments:      o.Segments,
		CardBits:      cardBits,
		LeafCapacity:  o.LeafCapacity,
		ChunkSize:     o.ChunkSize,
		IndexWorkers:  o.IndexWorkers,
		SearchWorkers: o.SearchWorkers,
		QueueCount:    o.QueueCount,
	}, o.Normalize, nil
}

// Match is one query answer.
type Match struct {
	// Position is the index of the matching series in the build data
	// (its row for Build, its offset/length for BuildFlat).
	Position int
	// Distance is the true distance between query and match (Euclidean,
	// or constrained DTW for a DTW request).
	Distance float64
}

// Index is an immutable MESSI index over a series collection — a group
// of one or more shards (Options.Shards), queried identically either way.
type Index struct {
	inner     *shard.Index
	normalize bool
	eng       *engine.Engine // pool-less: an Index holds no goroutines and is never closed
}

// newIndex wraps a built or loaded shard group.
func newIndex(inner *shard.Index, normalize bool) *Index {
	return &Index{inner: inner, normalize: normalize, eng: engine.NewUnpooled(inner.Opts(), engine.Options{})}
}

// Build indexes a slice of equal-length series (each row is copied into
// the index's contiguous storage).
func Build(rows [][]float32, opts *Options) (*Index, error) {
	col, err := series.FromSlices(rows)
	if err != nil {
		return nil, err
	}
	return buildCollection(col, opts)
}

// BuildFlat indexes flat row-major storage without copying: series i
// occupies data[i*seriesLen:(i+1)*seriesLen]. The caller must not modify
// data afterwards (with Options.Normalize the build itself rewrites it).
func BuildFlat(data []float32, seriesLen int, opts *Options) (*Index, error) {
	col, err := series.NewCollection(data, seriesLen)
	if err != nil {
		return nil, err
	}
	return buildCollection(col, opts)
}

// BuildFromFile indexes a dataset file written by WriteSeriesFile (or the
// messi-gen tool).
func BuildFromFile(path string, opts *Options) (*Index, error) {
	col, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return buildCollection(col, opts)
}

func buildCollection(col *series.Collection, opts *Options) (*Index, error) {
	coreOpts, normalize, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	if normalize {
		col.ZNormalizeAll()
	}
	inner, err := shard.Build(col, opts.shards(), coreOpts)
	if err != nil {
		return nil, err
	}
	return newIndex(inner, normalize), nil
}

// Series returns (a view of) the indexed series at the given position.
// Callers must not modify it. An out-of-range position is reported as an
// error, matching LiveIndex.Series (earlier versions panicked).
func (ix *Index) Series(position int) ([]float32, error) {
	if position < 0 || position >= ix.inner.Len() {
		return nil, fmt.Errorf("messi: position %d out of range [0,%d)", position, ix.inner.Len())
	}
	return ix.inner.At(position), nil
}

// Len reports the number of indexed series.
func (ix *Index) Len() int { return ix.inner.Len() }

// SeriesLen reports the length (points) of each indexed series.
func (ix *Index) SeriesLen() int { return ix.inner.SeriesLen() }

// Shards reports the number of index shards (1 = unsharded).
func (ix *Index) Shards() int { return ix.inner.NumShards() }

// Stats describes the shape of the built index tree.
type Stats struct {
	Series        int // series stored (== Len())
	RootChildren  int // non-empty root subtrees
	InternalNodes int
	Leaves        int
	MaxDepth      int // root children are depth 1
	MaxLeafFill   int // largest leaf occupancy
}

// Stats returns tree shape statistics, aggregated across shards (counts
// sum; depth and fill take the max).
func (ix *Index) Stats() Stats {
	s := ix.inner.Stats()
	return Stats(s)
}

// ShardStats returns each shard's own tree statistics, or nil for an
// unsharded index.
func (ix *Index) ShardStats() []Stats {
	if ix.inner.NumShards() == 1 {
		return nil
	}
	per := ix.inner.ShardStats()
	out := make([]Stats, len(per))
	for i, st := range per {
		out[i] = Stats(st)
	}
	return out
}

// compile-time check that the conversion above stays in sync with the
// internal stats type.
var _ = func() Stats { return Stats(tree.Stats{}) }
