// Package paris implements the paper's principal competitor: the
// in-memory version of ParIS (Peng, Palpanas, Fatourou, IEEE BigData
// 2018), including its SIMS query answering strategy, the ParIS-SISD
// ablation (scalar kernels), and ParIS-TS (the traditional tree-based
// exact search parallelized on top of the ParIS index).
//
// The construction pipeline deliberately keeps the two ParIS behaviours
// that MESSI redesigns (§I, §III-A of the MESSI paper), both in its first
// phase, bulk loading:
//
//  1. receive buffers are shared per root subtree and protected by locks
//     (MESSI: per-worker lock-free parts), and
//  2. the raw array is split statically into one chunk per bulk-loading
//     worker (MESSI: many small chunks claimed via Fetch&Inc), which costs
//     load balance.
//
// Its second phase, index construction, builds each root subtree from its
// buffered positions in one pass (tree.BuildRoot at k = w, as ParIS+
// builds a subtree from its buffer), with the partition MESSI's build
// uses; so a build comparison against MESSI measures the phase MESSI
// changed. With one worker each buffer is in position order, and the tree
// is the one inserting every series in order builds.
//
// ParIS also materializes the global SAX array (one iSAX word per series):
// SIMS scans that entire array at query time, which is why ParIS performs
// lower-bound distance calculations for every series in the collection
// (Figure 17a) while MESSI prunes during the tree pass.
package paris

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/tree"
)

// Options configures ParIS. Zero fields default to the paper's settings
// (same parameters as MESSI for a fair comparison).
type Options struct {
	Segments      int // w
	CardBits      int // bits per symbol
	LeafCapacity  int // leaf split threshold
	IndexWorkers  int // bulk-loading / index-construction workers
	SearchWorkers int // SIMS lower-bound and real-distance workers
}

func (o Options) withDefaults() Options {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&o.Segments, 16)
	def(&o.CardBits, 8)
	def(&o.LeafCapacity, 2000)
	def(&o.IndexWorkers, 24)
	def(&o.SearchWorkers, 48)
	return o
}

// Index is a built in-memory ParIS index: the raw data, the global SAX
// array, and the iSAX tree (which SIMS uses only for the approximate
// answer).
type Index struct {
	Data   *series.Collection
	Schema *isax.Schema
	Tree   *tree.Tree
	SAX    []uint8 // one full-precision word per series, stride Segments
	Opts   Options

	activeRoots []int32
}

// Build constructs the ParIS index.
func Build(data *series.Collection, opts Options) (*Index, error) {
	if data == nil || data.Count() == 0 {
		return nil, fmt.Errorf("paris: cannot build an index over an empty collection")
	}
	opts = opts.withDefaults()
	schema, err := isax.NewSchema(data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		return nil, err
	}
	tr, err := tree.New(schema, opts.LeafCapacity)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Data:   data,
		Schema: schema,
		Tree:   tr,
		SAX:    make([]uint8, data.Count()*schema.Segments),
		Opts:   opts,
	}

	nw := opts.IndexWorkers
	n := data.Count()
	if nw > n {
		nw = n
	}
	recv := newLockedBuffers(schema.RootFanout())

	// Phase 1 — bulk loading: static partition (one chunk per worker),
	// each append to the shared receive buffer takes that buffer's lock.
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bulkLoadWorker(ix, recv, w*n/nw, (w+1)*n/nw)
		}(w)
	}
	wg.Wait()

	// Phase 2 — index construction: workers claim root subtrees via
	// Fetch&Inc and build each from its buffered positions in one pass,
	// their words gathered from the SAX array into the worker's arena.
	var subtreeCtr atomic.Int64
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			constructionWorker(ix, recv, &subtreeCtr)
		}()
	}
	wg.Wait()

	for l := 0; l < schema.RootFanout(); l++ {
		if tr.Root(l) != nil {
			ix.activeRoots = append(ix.activeRoots, int32(l))
		}
	}
	return ix, nil
}

func bulkLoadWorker(ix *Index, recv *lockedBuffers, lo, hi int) {
	schema := ix.Schema
	w := schema.Segments
	paaBuf := make([]float64, w)
	for j := lo; j < hi; j++ {
		paa.Transform(ix.Data.At(j), w, paaBuf)
		word := ix.SAX[j*w : (j+1)*w]
		schema.WordFromPAA(paaBuf, word)
		recv.add(schema.RootIndex(word), int32(j))
	}
}

// arenaBytes is the size of the arenas a construction worker carves its
// roots' words from; a root that does not fit in what is left of one gets
// a fresh arena of max(arenaBytes, its words).
const arenaBytes = 64 << 10

// constructionWorker builds the root subtrees it claims with
// tree.BuildRoot: the root's leaves keep its buffer's positions (aliased)
// and its stretch of the worker's arena; the scratch is the worker's own,
// reused.
func constructionWorker(ix *Index, recv *lockedBuffers, subtreeCtr *atomic.Int64) {
	w := ix.Schema.Segments
	var arena, wordScratch []uint8
	var scratch []int32
	for {
		l := int(subtreeCtr.Add(1) - 1)
		if l >= len(recv.bufs) {
			return
		}
		positions := recv.bufs[l].positions
		if len(positions) == 0 {
			continue
		}
		n := len(positions) * w
		if len(arena) < n {
			arena = make([]uint8, max(arenaBytes, n))
		}
		words := arena[:n:n]
		arena = arena[n:]
		for i, pos := range positions {
			copy(words[i*w:], ix.Word(int(pos)))
		}
		if len(positions) > len(scratch) {
			wordScratch, scratch = make([]uint8, len(words)), make([]int32, len(positions))
		}
		ix.Tree.BuildRoot(l, words, positions, wordScratch, scratch)
	}
}

// lockedBuffers are the ParIS receive buffers: one shared buffer per root
// subtree, each append taking that buffer's lock. Entries reference
// positions in the SAX array rather than carrying their words (ParIS
// stores <iSAX summary, position> pairs in one global array and pointers in
// the receive buffers). A buffer's positions are read only after all
// appends have completed (post-barrier), matching ParIS's two phases.
type lockedBuffers struct {
	bufs []lockedBuf
}

type lockedBuf struct {
	mu        sync.Mutex
	positions []int32
}

func newLockedBuffers(fanout int) *lockedBuffers {
	return &lockedBuffers{bufs: make([]lockedBuf, fanout)}
}

// add adds a position to buffer l under its lock.
func (b *lockedBuffers) add(l int, pos int32) {
	lb := &b.bufs[l]
	lb.mu.Lock()
	lb.positions = append(lb.positions, pos)
	lb.mu.Unlock()
}

// Word returns series i's full-precision iSAX word from the SAX array.
func (ix *Index) Word(i int) []uint8 {
	w := ix.Schema.Segments
	return ix.SAX[i*w : (i+1)*w]
}

func (ix *Index) validateQuery(query []float32) error {
	if len(query) != ix.Data.Length {
		return fmt.Errorf("paris: query length %d, index series length %d", len(query), ix.Data.Length)
	}
	return nil
}
