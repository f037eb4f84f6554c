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
	shards []*core.Index // every shard holds at least one series
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

// Build partitions the collection into min(S, n) contiguous ranges, so no
// shard is empty, and builds them concurrently, each with the paper's
// two-phase parallel pipeline. Nothing is copied: shard s indexes a capped
// subslice of the caller's storage, so it can never grow into its
// neighbour, and like core.Build the collection must not be modified
// afterwards. Construction workers are divided across shards so total
// build parallelism matches the unsharded build.
func Build(data *series.Collection, shards int, opts core.Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("shard: cannot build an index over an empty collection")
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", shards, MaxShards)
	}
	n, L := data.Count(), data.Length
	shards = min(shards, n)
	opts = core.FillDefaults(opts)
	perShard := opts
	perShard.IndexWorkers = (opts.IndexWorkers + shards - 1) / shards

	cores := make([]*core.Index, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for s, lo := 0, 0; s < shards; s++ {
		hi := lo + sliceLen(n, s, shards)
		go func(s int, flat []float32) {
			defer wg.Done()
			col, err := series.NewCollection(flat, L)
			if err == nil {
				cores[s], err = core.Build(col, perShard)
			}
			errs[s] = err
		}(s, data.Data[lo*L:hi*L:hi*L])
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
// snapshot load). cores[s] must be non-nil and hold exactly shard s's
// contiguous range, and every shard must agree on series length and
// structural options.
func FromCores(cores []*core.Index) (*Index, error) {
	S := len(cores)
	if S < 1 || S > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", S, MaxShards)
	}
	count := 0
	for s, c := range cores {
		if c == nil {
			return nil, fmt.Errorf("shard: shard %d is missing", s)
		}
		if c.Data.Length != cores[0].Data.Length {
			return nil, fmt.Errorf("shard: shard %d has series length %d, shard 0 has %d", s, c.Data.Length, cores[0].Data.Length)
		}
		o, o0 := c.Opts, cores[0].Opts
		if o.Segments != o0.Segments || o.CardBits != o0.CardBits || o.LeafCapacity != o0.LeafCapacity {
			return nil, fmt.Errorf("shard: shard %d was built with different structural options", s)
		}
		count += c.Data.Count()
	}
	for s, c := range cores {
		if want := sliceLen(count, s, S); c.Data.Count() != want {
			return nil, fmt.Errorf("shard: shard %d holds %d series, the partition of %d over %d shards requires %d",
				s, c.Data.Count(), count, S, want)
		}
	}
	return newIndex(cores, count, cores[0].Data.Length, cores[0].Opts), nil
}

// NumShards reports the shard count S.
func (x *Index) NumShards() int { return len(x.shards) }

// Shard returns shard s's core index.
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

// ShardStats returns each shard's own tree statistics.
func (x *Index) ShardStats() []tree.Stats {
	out := make([]tree.Stats, len(x.shards))
	for s, sh := range x.shards {
		out[s] = sh.Stats()
	}
	return out
}
