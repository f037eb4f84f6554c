package shard

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tree"
)

// MaxShards bounds the shard count: beyond a few hundred independent
// trees, per-shard overheads (root fanout allocations, fan-out goroutines)
// dominate any locality win.
const MaxShards = 256

// Index is a sharded MESSI index: S independent core indexes over a
// round-robin partition of one logical collection. It is immutable after
// Build and safe for concurrent queries.
type Index struct {
	shards []*core.Index // shards[s] may be nil when count <= s (fewer series than shards)
	count  int           // total series across all shards
	length int           // points per series
	opts   core.Options  // effective caller options (per-shard IndexWorkers are divided)
}

// SliceLen returns how many of n round-robin-partitioned series land in
// shard s: the size of {p < n : p%S == s}.
func SliceLen(n, s, S int) int {
	if n <= s {
		return 0
	}
	return (n - s + S - 1) / S
}

// globalPos maps shard s's local position to the collection-global one.
func globalPos(s, S int) func(int64) int64 {
	s64, stride := int64(s), int64(S)
	return func(local int64) int64 { return local*stride + s64 }
}

// Build partitions the collection into S shards and builds them
// concurrently, each with the paper's two-phase parallel pipeline. S == 1
// retains the collection without copying (like core.Build); S > 1 copies
// each series into its shard's contiguous storage. Construction workers
// are divided across shards so total build parallelism matches the
// unsharded build.
func Build(data *series.Collection, shards int, opts core.Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("shard: cannot build an index over an empty collection")
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", shards, MaxShards)
	}
	opts = core.FillDefaults(opts)
	if shards == 1 {
		ix, err := core.Build(data, opts)
		if err != nil {
			return nil, err
		}
		return Wrap(ix), nil
	}

	n, length := data.Count(), data.Length
	flats := AllocSlices(n, shards, length)
	fill := make([]int, shards)
	for p := 0; p < n; p++ {
		s := p % shards
		copy(flats[s][fill[s]:fill[s]+length], data.At(p))
		fill[s] += length
	}
	return BuildFlats(flats, n, length, opts)
}

// AllocSlices allocates per-shard flat storage for n round-robin-
// partitioned series of the given length (nil entries for empty slices) —
// the buffers callers fill before BuildFlats.
func AllocSlices(n, shards, length int) [][]float32 {
	flats := make([][]float32, shards)
	for s := range flats {
		if c := SliceLen(n, s, shards); c > 0 {
			flats[s] = make([]float32, c*length)
		}
	}
	return flats
}

// BuildFlats builds an Index from already-partitioned per-shard flat
// storage (flats[s] holds shard s's round-robin slice contiguously; nil
// where that slice is empty — the shape AllocSlices produces). The shards
// are built concurrently, each with the construction workers divided by
// the shard count; flats is retained by the index without copying. This
// is the one shared scaffolding under both the static Build and the live
// index's per-shard generational rebuild.
func BuildFlats(flats [][]float32, count, length int, opts core.Options) (*Index, error) {
	shards := len(flats)
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", shards, MaxShards)
	}
	opts = core.FillDefaults(opts)
	perShard := opts
	perShard.IndexWorkers = (opts.IndexWorkers + shards - 1) / shards

	x := &Index{shards: make([]*core.Index, shards), count: count, length: length, opts: opts}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		if flats[s] == nil {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			col, err := series.NewCollection(flats[s], length)
			if err == nil {
				x.shards[s], err = core.Build(col, perShard)
			}
			errs[s] = err
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", s, err)
		}
	}
	if got := x.recount(); got != count {
		return nil, fmt.Errorf("shard: flats hold %d series, caller declared %d", got, count)
	}
	return x, nil
}

// recount sums the shard collections' sizes.
func (x *Index) recount() int {
	total := 0
	for _, sh := range x.shards {
		if sh != nil {
			total += sh.Data.Count()
		}
	}
	return total
}

// Wrap presents an already-built single index as a 1-shard Index (no
// copying). Wrapping nil returns nil.
func Wrap(ix *core.Index) *Index {
	if ix == nil {
		return nil
	}
	return &Index{
		shards: []*core.Index{ix},
		count:  ix.Data.Count(),
		length: ix.Data.Length,
		opts:   ix.Opts,
	}
}

// FromCores assembles an Index from per-shard core indexes (a parallel
// snapshot load). cores[s] must hold exactly the round-robin slice of
// shard s — nil entries are allowed only where that slice is empty — and
// every shard must agree on series length and structural options.
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
		want := SliceLen(count, s, S)
		got := 0
		if c != nil {
			got = c.Data.Count()
		}
		if got != want {
			return nil, fmt.Errorf("shard: shard %d holds %d series, round-robin partition of %d over %d shards requires %d",
				s, got, count, S, want)
		}
	}
	return &Index{shards: cores, count: count, length: length, opts: opts}, nil
}

// NumShards reports the shard count S.
func (x *Index) NumShards() int { return len(x.shards) }

// Shard returns shard s's core index (nil when that slice is empty).
func (x *Index) Shard(s int) *core.Index { return x.shards[s] }

// Len reports the total number of indexed series.
func (x *Index) Len() int { return x.count }

// SeriesLen reports the length (points) of each indexed series.
func (x *Index) SeriesLen() int { return x.length }

// Opts returns the effective (defaulted) construction options.
func (x *Index) Opts() core.Options { return x.opts }

// At returns (a view of) the series at the given global position.
func (x *Index) At(pos int) []float32 {
	S := len(x.shards)
	return x.shards[pos%S].Data.At(pos / S)
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
