package core

import (
	"errors"

	"repro/internal/isax"
	"repro/internal/series"
	"repro/internal/tree"
)

// Paper defaults (§IV-B, "Parameter Tuning Evaluation").
const (
	DefaultSegments      = 16    // w, fixed to 16 as in previous studies
	DefaultCardBits      = 8     // alphabet cardinality 256
	DefaultLeafCapacity  = 2000  // leaf size minimizing query time (Fig 7)
	DefaultChunkSize     = 20000 // 20K series = 20MB chunks (Fig 5)
	DefaultIndexWorkers  = 24    // Nw (Fig 9)
	DefaultSearchWorkers = 48    // Ns (Fig 11)
	DefaultQueueCount    = 24    // Nq (Fig 14)
)

// Options configures index construction and the default query parameters.
// The zero value of any field selects the paper's default.
type Options struct {
	Segments      int // w: PAA segments per iSAX word
	CardBits      int // bits per symbol (cardinality = 1<<CardBits)
	LeafCapacity  int // max series per leaf before splitting
	ChunkSize     int // series per Fetch&Inc work unit in phase 1
	IndexWorkers  int // Nw: index construction workers
	SearchWorkers int // Ns: search workers
	QueueCount    int // Nq: priority queues (1 = the paper's MESSI-sq)
}

// withDefaults fills zero fields with the paper's defaults and clamps
// nonsensical values.
func (o Options) withDefaults() Options {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&o.Segments, DefaultSegments)
	def(&o.CardBits, DefaultCardBits)
	def(&o.LeafCapacity, DefaultLeafCapacity)
	def(&o.ChunkSize, DefaultChunkSize)
	def(&o.IndexWorkers, DefaultIndexWorkers)
	def(&o.SearchWorkers, DefaultSearchWorkers)
	def(&o.QueueCount, DefaultQueueCount)
	return o
}

// FillDefaults returns o with zero fields replaced by the paper's
// defaults — the same normalization Build applies internally, exported
// for layers (like the live index) that need the effective values before
// building.
func FillDefaults(o Options) Options { return o.withDefaults() }

// ErrEmptyIndex is returned when querying an index with no series.
var ErrEmptyIndex = errors.New("core: index contains no series")

// Index is a built MESSI index: the raw data array, the iSAX schema, and
// the index tree. An Index is immutable after Build and safe for
// concurrent queries.
type Index struct {
	Data   *series.Collection
	Schema *isax.Schema
	Tree   *tree.Tree
	Opts   Options

	// activeRoots lists the non-empty root slots. Search workers claim
	// entries of this list via Fetch&Inc instead of sweeping all 2^w
	// slots (Algorithm 6 sweeps the full fanout; restricting the sweep
	// to non-empty subtrees is behaviour-preserving — empty slots are
	// skipped either way — and keeps the Fetch&Inc count proportional
	// to the data).
	activeRoots []int32

	// sample holds the full-cardinality iSAX words of sampleSize evenly
	// strided positions, flat (word i is sample[i*w:(i+1)*w]): what a run
	// probes to choose its plan (see SearchRun.sampledShare). Build and
	// Restore fill it identically.
	sample []uint8
}

// sampleSize is how many words the plan sample holds: 32 KB at w = 16, and
// every position of a smaller collection. The standard error of a share
// measured on 2 048 words is at most 0.011 (at a share of ½).
const sampleSize = 2048

// fillSample stores the plan sample: word(pos, dst) writes series pos's
// full-cardinality iSAX word into dst, for the positions i·n/m, i < m =
// min(n, sampleSize).
func (ix *Index) fillSample(word func(pos int, dst []uint8)) {
	n, w := ix.Data.Count(), ix.Schema.Segments
	m := min(n, sampleSize)
	ix.sample = make([]uint8, m*w)
	for i := 0; i < m; i++ {
		word(i*n/m, ix.sample[i*w:(i+1)*w])
	}
}

// Match is a query result: the position of a series in the collection and
// its SQUARED distance to the query (Euclidean, or constrained DTW for a
// DTW request).
type Match struct {
	Position int
	Dist     float64
}

// ActiveRoots returns the slots of non-empty root subtrees (read-only).
func (ix *Index) ActiveRoots() []int32 { return ix.activeRoots }

// Stats returns tree shape statistics.
func (ix *Index) Stats() tree.Stats { return ix.Tree.Stats() }
