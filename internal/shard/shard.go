package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tree"
)

// MaxShards bounds the shard count: beyond a few hundred independent
// trees, per-shard overheads (root fanout allocations, fan-out goroutines)
// dominate any locality win.
const MaxShards = 256

// Index is a sharded MESSI index: S independent core indexes over
// contiguous position ranges of one logical collection. It is immutable
// after Build and safe for concurrent queries.
type Index struct {
	shards []*core.Index // shards[s] is nil when its range is empty (fewer series than shards)
	starts []int         // starts[s]: global position of shard s's first series
	count  int           // total series across all shards
	length int           // points per series
	opts   core.Options  // effective caller options (per-shard IndexWorkers are divided)
}

// sliceLen returns how many of n series shard s of S holds: the first n%S
// shards hold one series more than the rest.
func sliceLen(n, s, S int) int {
	if s < n%S {
		return n/S + 1
	}
	return n / S
}

// newIndex assembles shards that hold the contiguous partition of count
// series; each start is the sum of the sizes before it.
func newIndex(shards []*core.Index, count, length int, opts core.Options) *Index {
	x := &Index{shards: shards, starts: make([]int, len(shards)), count: count, length: length, opts: opts}
	for s := 1; s < len(shards); s++ {
		x.starts[s] = x.starts[s-1] + sliceLen(count, s-1, len(shards))
	}
	return x
}

// Build partitions the collection into S contiguous ranges and builds them
// concurrently, each with the paper's two-phase parallel pipeline. Nothing
// is copied: shard s indexes a capped subslice of the caller's storage, so
// it can never grow into its neighbour, and like core.Build the collection
// must not be modified afterwards. Construction workers are divided across
// shards so total build parallelism matches the unsharded build.
func Build(data *series.Collection, shards int, opts core.Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("shard: cannot build an index over an empty collection")
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", shards, MaxShards)
	}
	opts = core.FillDefaults(opts)
	perShard := opts
	perShard.IndexWorkers = (opts.IndexWorkers + shards - 1) / shards

	n, L := data.Count(), data.Length
	cores := make([]*core.Index, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s, lo := 0, 0; s < shards; s++ {
		hi := lo + sliceLen(n, s, shards)
		if hi > lo {
			wg.Add(1)
			go func(s int, flat []float32) {
				defer wg.Done()
				col, err := series.NewCollection(flat, L)
				if err == nil {
					cores[s], err = core.Build(col, perShard)
				}
				errs[s] = err
			}(s, data.Data[lo*L:hi*L:hi*L])
		}
		lo = hi
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", s, err)
		}
	}
	return newIndex(cores, n, L, opts), nil
}

// FromCores assembles an Index from per-shard core indexes (a parallel
// snapshot load). cores[s] must hold exactly shard s's contiguous range —
// nil entries are allowed only where that range is empty — and every shard
// must agree on series length and structural options.
func FromCores(cores []*core.Index) (*Index, error) {
	S := len(cores)
	if S < 1 || S > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", S, MaxShards)
	}
	count := 0
	length := -1
	var opts core.Options
	for s, c := range cores {
		if c == nil {
			continue
		}
		if length == -1 {
			length = c.Data.Length
			opts = c.Opts
		}
		if c.Data.Length != length {
			return nil, fmt.Errorf("shard: shard %d has series length %d, shard 0 has %d", s, c.Data.Length, length)
		}
		if c.Opts.Segments != opts.Segments || c.Opts.CardBits != opts.CardBits || c.Opts.LeafCapacity != opts.LeafCapacity {
			return nil, fmt.Errorf("shard: shard %d was built with different structural options", s)
		}
		count += c.Data.Count()
	}
	if count == 0 {
		return nil, fmt.Errorf("shard: all %d shards are empty", S)
	}
	for s, c := range cores {
		want := sliceLen(count, s, S)
		got := 0
		if c != nil {
			got = c.Data.Count()
		}
		if got != want {
			return nil, fmt.Errorf("shard: shard %d holds %d series, the partition of %d over %d shards requires %d",
				s, got, count, S, want)
		}
	}
	return newIndex(cores, count, length, opts), nil
}

// NumShards reports the shard count S.
func (x *Index) NumShards() int { return len(x.shards) }

// Shard returns shard s's core index (nil when that slice is empty).
func (x *Index) Shard(s int) *core.Index { return x.shards[s] }

// Start returns the global position of shard s's first series.
func (x *Index) Start(s int) int { return x.starts[s] }

// Len reports the total number of indexed series.
func (x *Index) Len() int { return x.count }

// SeriesLen reports the length (points) of each indexed series.
func (x *Index) SeriesLen() int { return x.length }

// Opts returns the effective (defaulted) construction options.
func (x *Index) Opts() core.Options { return x.opts }

// At returns (a view of) the series at the given global position.
func (x *Index) At(pos int) []float32 {
	s := sort.SearchInts(x.starts, pos+1) - 1 // the last shard starting at or before pos
	return x.shards[s].Data.At(pos - x.starts[s])
}

// Stats aggregates tree shape statistics across the shards: counts sum,
// depths and fills take the max.
func (x *Index) Stats() tree.Stats {
	var agg tree.Stats
	for _, sh := range x.shards {
		if sh == nil {
			continue
		}
		st := sh.Stats()
		agg.Series += st.Series
		agg.RootChildren += st.RootChildren
		agg.InternalNodes += st.InternalNodes
		agg.Leaves += st.Leaves
		if st.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = st.MaxDepth
		}
		if st.MaxLeafFill > agg.MaxLeafFill {
			agg.MaxLeafFill = st.MaxLeafFill
		}
	}
	return agg
}

// ShardStats returns each shard's own tree statistics (zero value for
// empty shards).
func (x *Index) ShardStats() []tree.Stats {
	out := make([]tree.Stats, len(x.shards))
	for s, sh := range x.shards {
		if sh != nil {
			out[s] = sh.Stats()
		}
	}
	return out
}
