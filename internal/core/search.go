package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/pqueue"
	"repro/internal/series"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vector"
)

// fpScanLeaf is the failpoint inside the leaf-scan kernel — the
// deepest point of query execution, where a panic exercises the whole
// recovery chain (pool worker → per-query recorder → ErrQueryPanicked).
// An Error spec panics too: scanLeaf has no error return, and the
// engine's recovery is exactly what turns worker failures into typed
// per-query errors.
var fpScanLeaf = fault.Register("core.scanleaf")

// SearchOptions configures one query. Zero fields inherit the index
// options (which themselves default to the paper's values).
type SearchOptions struct {
	Workers int // Ns: search worker goroutines
	Queues  int // Nq: priority queues; 1 = MESSI-sq, >1 = MESSI-mq

	// GlobalPos maps this index's local series positions into the
	// caller's global position space (a sharded collection, where this
	// index holds only every S-th series). When set, every candidate found
	// in this index is mapped before it reaches the collector. Nil means
	// the identity (a collection of one shard).
	GlobalPos func(int64) int64

	// Shared, when non-nil, replaces the run's private collector with a
	// caller-owned one threaded through several concurrent runs — the
	// sharded fan-out, where a tight bound found in one shard prunes the
	// searches of all the others. It holds global positions (see
	// GlobalPos), and series outside any index (a live index's delta) are
	// measured into it by Scan; after every sibling finishes, its Matches
	// are the fused answer.
	Shared Collector

	// QoS, when non-nil, carries the query's quality-of-service state:
	// ε-inflated pruning and deadline/cancellation stop checks, with the
	// bookkeeping that proves the answer's quality afterwards. Like
	// Shared, one QoS is threaded through every shard run of a fan-out.
	// Nil means plain exact search with zero added hot-path work.
	QoS *QoS
}

func (o SearchOptions) withDefaults(ixOpts Options) SearchOptions {
	if o.Workers <= 0 {
		o.Workers = ixOpts.SearchWorkers
	}
	if o.Queues <= 0 {
		o.Queues = ixOpts.QueueCount
	}
	return o
}

// Collector is the pruning bound and the answer set of one query, shared
// by all its search workers and, in a fan-out, by every sibling run: the
// 1-NN best-so-far or the k-NN top-k set. All methods are safe for
// concurrent use.
type Collector interface {
	// Load returns the current squared pruning threshold.
	Load() float64
	// Update offers a candidate; it reports whether the answer set changed.
	Update(dist float64, pos int64) bool
	// Matches returns the answers in ascending distance order, ties broken
	// by ascending position. Call it only after every run sharing the
	// collector has finished.
	Matches() []Match
}

// NewCollector returns the collector of a k-nearest-neighbor query; k ≤ 1
// is the paper's lock-free 1-NN best-so-far.
func NewCollector(k int) Collector {
	if k <= 1 {
		return nearest{stats.NewBSF()}
	}
	return newTopK(k)
}

// nearest is the 1-NN collector: the paper's BSF, answering with at most
// one match.
type nearest struct{ *stats.BSF }

func (n nearest) Matches() []Match {
	d, pos := n.Best()
	if pos < 0 {
		return nil
	}
	return []Match{{Position: int(pos), Dist: d}}
}

// bound is the part of a collector the search workers see: the threshold
// to prune against and where to offer improvements.
type bound interface {
	Load() float64
	Update(dist float64, pos int64) bool
}

// mappedBound translates this index's local positions into the collector's
// global space (a sharded collection's) on every update. Loads pass through
// untouched — the pruning threshold is the same number in every space.
type mappedBound struct {
	inner    bound
	toGlobal func(int64) int64
}

func (m mappedBound) Load() float64 { return m.inner.Load() }
func (m mappedBound) Update(dist float64, pos int64) bool {
	return m.inner.Update(dist, m.toGlobal(pos))
}

// workerBound wraps b with the run's position mapping when one is set.
func workerBound(b bound, toGlobal func(int64) int64) bound {
	if toGlobal == nil {
		return b
	}
	return mappedBound{inner: b, toGlobal: toGlobal}
}

// kernel is the one thing that differs between the search flavours — the
// Euclidean and DTW searches are one algorithm with swapped bounds ("Fast
// Data Series Indexing for In-Memory Data", PAPERS.md): which query summary
// fills the per-query MINDIST table, and how a raw candidate is measured.
type kernel interface {
	// prepare fills tab from the summary this flavour prunes with (the
	// query's PAA, or its LB_Keogh envelope).
	prepare(tab *isax.DistTable, qpaa []float64)
	// dist measures one raw candidate against the pruning limit. It
	// returns the squared distance (any value ≥ limit once the candidate
	// is ruled out) and how many raw-series lower bounds and real
	// distances that took.
	dist(candidate []float32, limit float64) (d float64, lowerBounds, realDists int64)
}

// newKernel returns the kernel of a checked request.
func newKernel(req Request) kernel {
	if req.DTW {
		upper, lower := dtw.Envelope(req.Query, req.Window)
		return &warped{query: req.Query, window: req.Window, upper: upper, lower: lower}
	}
	return euclidean(req.Query)
}

// euclidean is the paper's default kernel: the early-abandoning squared
// Euclidean distance to the query it wraps.
type euclidean []float32

func (q euclidean) prepare(tab *isax.DistTable, qpaa []float64) { tab.BuildPAA(qpaa) }

func (q euclidean) dist(candidate []float32, limit float64) (float64, int64, int64) {
	return vector.SquaredEuclideanEarlyAbandon(candidate, q, limit), 0, 1
}

// The refine stage walks a leaf's surviving candidates in batches of
// refineBatch: it first issues one load per cache line (lineFloats
// float32s) of every candidate in the batch, so the batch's cache and TLB
// misses overlap instead of being paid one after another inside the
// distance kernel, and only then measures the candidates. Leaves hold
// positions into the raw data array, so this stage is a pointer chase over
// the whole collection, and on queries that prune badly its latency — not
// the kernel's arithmetic — is the cost of a search.
//
// Both constants are measured, on 500 k series × 128 points (256 MB). One
// core, full-length kernel per series (BenchmarkRefineOrder): position
// order 124 ms, leaf order through the plain loop 268 ms, touching only the
// next candidate ahead 193 ms, batches of 2/4/8/16/32/64 305/250/224/215/
// 207/208 ms. End to end (bench/ serve-hard, p50 of a 1-NN query that
// prunes 4 %): plain loop 127 ms; batches of 8/16/32 with every line
// touched 65/63/63 ms; batches of 8 with every second line 72 ms, every
// fourth 63 ms. From 8 up everything is within 5 %, so the batch is the
// smallest of those — a bound tightened mid-batch wastes at most 7 gathers
// — and every line is touched, which leans on no hardware prefetcher. A
// PREFETCHT0 stub was no faster than plain loads (ISSUE 14's prototype), so
// there is no assembly.
const (
	refineBatch = 8
	lineFloats  = 16 // float32s per 64-byte cache line
)

// leafScratch is the per-worker scratch of a leaf scan: the whole leaf's
// lower-bound accumulators, the entries that survive them, and the sink
// of the refine stage's gather-ahead loads (per worker, never shared, so
// concurrent scans do not race on it). Workers borrow one from scratchPool
// for the duration of a drain phase.
type leafScratch struct {
	lb   []float64
	cand []int32
	sink uint32
}

// bounds returns the accumulator slice sized for an n-entry leaf.
func (s *leafScratch) bounds(n int) []float64 {
	if cap(s.lb) < n {
		s.lb = make([]float64, n)
	}
	return s.lb[:n]
}

// accumulate streams a leaf's symbol columns against the distance
// table's rows, leaving each entry's unscaled lower-bound sum in the
// scratch buffer — the one canonical column kernel shared by the
// Euclidean and DTW leaf scans. The ascending-segment accumulation
// order is what makes the result (after scaling) bitwise identical to
// the scalar per-entry kernels; keep it if you touch this.
func (s *leafScratch) accumulate(leaf *tree.Node, tab *isax.DistTable, w int) []float64 {
	lbs := s.bounds(leaf.LeafLen())
	row := tab.Row(0)
	for e, sym := range leaf.Col(0) {
		lbs[e] = row[sym]
	}
	for seg := 1; seg < w; seg++ {
		row = tab.Row(seg)
		for e, sym := range leaf.Col(seg) {
			lbs[e] += row[sym]
		}
	}
	return lbs
}

// candidates returns the scratch's entry-index list, emptied, with room
// for an n-entry leaf.
func (s *leafScratch) candidates(n int) []int32 {
	if cap(s.cand) < n {
		s.cand = make([]int32, 0, n)
	}
	return s.cand[:0]
}

// all returns the candidate list naming every entry of an n-entry leaf.
func (s *leafScratch) all(n int) []int32 {
	cand := s.candidates(n)
	for e := 0; e < n; e++ {
		cand = append(cand, int32(e))
	}
	return cand
}

// filter is the first stage of a leaf scan: it scales the accumulate sums
// in lbs into lower bounds, in place, and compacts the entries whose bound
// survives limit into the scratch's candidate list, in entry order. refine
// re-checks every survivor against the bound as it stands by then. An entry
// dropped here under ε-inflation is recorded as a witness even if a tighter,
// later bound would have pruned it without inflation; such a witness is no
// smaller than the final answer, and Finish ignores those.
func (s *leafScratch) filter(lbs []float64, scale, limit float64, qos *QoS) []int32 {
	escale := qos.Scale()
	cand := s.candidates(len(lbs))
	for e, sum := range lbs {
		lb := sum * scale
		lbs[e] = lb
		if lb*escale >= limit {
			if escale > 1 && lb < limit {
				// Entry skipped only because of ε-inflation.
				qos.PruneEps(lb)
			}
			continue
		}
		cand = append(cand, int32(e))
	}
	return cand
}

var scratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// QueryState holds the per-query scratch resources — PAA buffer, iSAX word
// buffer, the per-query distance table, and the priority-queue set — that
// a long-lived query engine reuses across queries instead of reallocating
// per search. A QueryState may back at most one SearchRun at a time; the
// zero value is ready to use.
type QueryState struct {
	paaBuf  []float64
	wordBuf []uint8
	table   *isax.DistTable
	queues  pqueue.Set[*tree.Node]
}

// NewQueryState returns an empty reusable scratch state.
func NewQueryState() *QueryState { return &QueryState{} }

// SearchRun is one in-flight query on one index: the shared per-query state
// (collector, priority queues, root-claim counter) that any number of
// workers operate on. It decomposes Algorithm 6 into two phases so that
// workers can be either goroutines spawned for this query (Run) or units
// dispatched onto a persistent pool (internal/engine):
//
//	InsertPhase — claim root subtrees via Fetch&Inc, prune, push
//	              non-prunable leaves into the queues (lines 1-6);
//	DrainPhase  — after every InsertPhase call has returned (the
//	              all-inserted barrier of line 7), drain queues until all
//	              are finished (lines 8-13).
//
// All phase methods are safe for concurrent use; pid distinguishes
// workers for queue-cursor and randomization purposes.
type SearchRun struct {
	ix          *Index
	kern        kernel          // the distance flavour: Euclidean or DTW
	table       *isax.DistTable // per-query MINDIST table; nil until prepareTable
	pooledTable bool            // table borrowed from ix.tables (no QueryState)
	coll        Collector       // the answer set, in the caller's position space
	bnd         bound           // coll as the workers see it (local positions mapped)
	queues      *pqueue.Set[*tree.Node]
	rootCtr     atomic.Int64
	opt         SearchOptions
	ctrs        *stats.Counters  // nil = not counting
	bd          *stats.Breakdown // nil = not tracing
	qos         *QoS             // nil for plain exact runs
	escale      float64          // qos.Scale(): (1+ε)² lower-bound inflation, 1 = exact
	done        bool             // the answer is complete after init (ModeApprox)
}

// NewRun prepares one query on this index — the only place a SearchRun is
// built. The request selects the distance kernel (DTW or Euclidean) and
// the collector (K), unless the caller threads its own through
// opt.Shared; opt.QoS carries the ε/deadline state built from the same
// request. Preparation computes the query's PAA and iSAX summaries and
// seeds the collector with the approximate search. A ModeApprox run is
// complete at that point (see Done); every other mode then runs the two
// phases. st may be nil (fresh allocations) or a reused QueryState. The
// request must have passed Validate and CheckShape, and the query must
// already be z-normalized if the indexed data is (the public API layer
// handles both).
func (ix *Index) NewRun(req Request, st *QueryState, opt SearchOptions) (*SearchRun, error) {
	if ix.Data.Count() == 0 {
		return nil, ErrEmptyIndex
	}
	coll := opt.Shared
	if coll == nil {
		coll = NewCollector(req.K)
	}
	r := &SearchRun{ix: ix, coll: coll, bnd: workerBound(coll, opt.GlobalPos),
		opt: opt.withDefaults(ix.Opts), ctrs: req.Counters, bd: req.Breakdown,
		qos: opt.QoS, escale: opt.QoS.Scale()}
	r.init(req, st)
	return r, nil
}

// init builds the kernel, computes the query summaries (into st's buffers
// when available), seeds the collector via the approximate search and,
// unless that already completes the run, builds the per-query distance
// table and sizes the queue set.
func (r *SearchRun) init(req Request, st *QueryState) {
	var tInit time.Time
	if r.bd.Enabled() {
		tInit = time.Now()
	}
	r.kern = newKernel(req)
	var paaBuf []float64
	var wordBuf []uint8
	if st != nil {
		paaBuf, wordBuf = st.paaBuf, st.wordBuf
	}
	qpaa := paa.Transform(req.Query, r.ix.Schema.Segments, paaBuf)
	qword := r.ix.Schema.WordFromPAA(qpaa, wordBuf)
	if st != nil {
		st.paaBuf, st.wordBuf = qpaa, qword
	}
	// An approximate Euclidean answer reads the table only in the rare
	// empty-subtree fallback, and its point is to be cheap: it builds the
	// table only if it has to go on to the exact phases.
	lazyTable := req.Mode == ModeApprox && !req.DTW
	if !lazyTable {
		r.prepareTable(st, qpaa)
	}
	found := r.ix.approxSearch(qpaa, qword, r.table, r.kern, r.bnd, r.ctrs)
	// An approximate run whose descent reached no candidate falls back to
	// the exact search simply by not being done.
	r.done = req.Mode == ModeApprox && found
	if !r.done {
		if lazyTable {
			r.prepareTable(st, qpaa)
		}
		if st != nil {
			st.queues.Resize(r.opt.Queues, 64)
			r.queues = &st.queues
		} else {
			r.queues = pqueue.NewSet[*tree.Node](r.opt.Queues, 64)
		}
	}
	if r.bd.Enabled() {
		r.bd.Add(stats.PhaseInit, time.Since(tInit))
	}
}

// prepareTable readies the run's distance table — st's when there is one,
// else one borrowed from the index's pool — and fills it from the query
// summary the kernel prunes with.
func (r *SearchRun) prepareTable(st *QueryState, qpaa []float64) {
	if st != nil {
		// The table's geometry is schema-bound; a pooled state may have
		// last served a different generation (engine Swap) or a sibling
		// shard, so recheck — same geometry means the buffer is reusable.
		if st.table == nil || !st.table.Schema().SameGeometry(r.ix.Schema) {
			st.table = r.ix.Schema.NewDistTable()
		}
		r.table = st.table
	} else {
		r.table, r.pooledTable = r.ix.getTable(), true
	}
	r.kern.prepare(r.table, qpaa)
}

// Done reports whether the run's answer was complete after preparation —
// a ModeApprox run whose descent found candidates. The phases of a done
// run are no-ops.
func (r *SearchRun) Done() bool { return r.done }

// Run executes the query's phases with opt.Workers goroutines spawned for
// this run only — the paper's original per-query execution mode
// (Algorithm 5/6).
func (r *SearchRun) Run() {
	if !r.done {
		var insertBarrier sync.WaitGroup // all-inserted barrier (Algorithm 6 line 7)
		insertBarrier.Add(r.opt.Workers)
		var wg sync.WaitGroup
		for pid := 0; pid < r.opt.Workers; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				r.InsertPhase(pid)
				insertBarrier.Done()
				insertBarrier.Wait()
				r.DrainPhase(pid)
			}(pid)
		}
		wg.Wait()
	}
	if r.pooledTable {
		r.ix.putTable(r.table)
		r.table, r.pooledTable = nil, false
	}
}

// Matches returns the run's answers — up to K, in ascending distance order
// — or, with opt.Shared, whatever the shared collector holds. Call only
// after all workers finished.
func (r *SearchRun) Matches() []Match { return r.coll.Matches() }

// InsertPhase is the tree-traversal half of Algorithm 6: claim root
// subtrees via Fetch&Inc and push non-prunable leaves into the queues.
// Every participating worker must call it exactly once, and all calls
// must return before the first DrainPhase call starts.
func (r *SearchRun) InsertPhase(pid int) {
	if r.done {
		return
	}
	ctrs, bd := r.ctrs, r.bd
	cursor := pid % r.opt.Queues // round-robin insertion cursor (line 2)

	var tStart time.Time
	if bd.Enabled() {
		tStart = time.Now()
	}
	var insertTime time.Duration
	for {
		i := int(r.rootCtr.Add(1) - 1)
		if i >= len(r.ix.activeRoots) {
			break
		}
		if r.qos.ShouldStop() {
			// Root subtree i (at least) goes unexplored.
			r.qos.MarkTruncated()
			break
		}
		root := r.ix.Tree.Root(int(r.ix.activeRoots[i]))
		r.traverse(root, &cursor, &insertTime, ctrs, bd)
	}
	if bd.Enabled() {
		bd.Add(stats.PhaseTreePass, time.Since(tStart)-insertTime)
		bd.Add(stats.PhasePQInsert, insertTime)
	}
}

// DrainPhase is the queue-processing half of Algorithm 6 (lines 8-13):
// drain queues until every queue is finished.
func (r *SearchRun) DrainPhase(pid int) {
	if r.done {
		return
	}
	ctrs, bd := r.ctrs, r.bd
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)

	// The next queue to work on is chosen starting from a randomized
	// position — the load-balancing scheme the paper settled on ("workers
	// use randomization to choose the priority queues they will work on").
	rnd := uint64(pid)*0x9E3779B97F4A7C15 + 0x1234567
	q := pid % r.opt.Queues
	for {
		r.processQueue(r.queues.Queue(q), scratch, ctrs, bd)
		rnd = rnd*6364136223846793005 + 1442695040888963407 // LCG step
		q = r.queues.NextUnfinished(int(rnd>>33) % r.opt.Queues)
		if q < 0 {
			return
		}
	}
}

// traverse is Algorithm 7: prune subtrees whose lower bound exceeds the
// BSF; push surviving leaves into the queues round-robin. Node bounds are
// one table lookup per segment against the run's distance table.
func (r *SearchRun) traverse(node *tree.Node, cursor *int, insertTime *time.Duration,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	ctrs.AddNodesVisited(1)
	dist := r.table.MinDistPrefix(node.Symbols, node.Bits)
	ctrs.AddLowerBound(1)
	if limit := r.bnd.Load(); dist*r.escale >= limit {
		if dist < limit {
			// Pruned only because of the (1+ε)² inflation: this subtree
			// could hold something better than the BSF, but nothing below
			// dist — record it as an answer-quality witness.
			r.qos.PruneEps(dist)
		}
		return
	}
	if node.IsLeaf() {
		if node.LeafLen() == 0 {
			return
		}
		if bd.Enabled() {
			t0 := time.Now()
			r.queues.PushRoundRobin(cursor, dist, node)
			*insertTime += time.Since(t0)
		} else {
			r.queues.PushRoundRobin(cursor, dist, node)
		}
		ctrs.AddLeavesInserted(1)
		return
	}
	r.traverse(node.Left, cursor, insertTime, ctrs, bd)
	r.traverse(node.Right, cursor, insertTime, ctrs, bd)
}

// processQueue is Algorithm 8: repeatedly DeleteMin; once the popped bound
// is no better than the BSF (or the queue is empty), mark the queue
// finished and return.
func (r *SearchRun) processQueue(q *pqueue.Queue[*tree.Node], scratch *leafScratch,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	for {
		if q.Finished() {
			return
		}
		if r.qos.ShouldStop() {
			// Deadline passed or request cancelled: abandon the queue at
			// leaf-scan granularity. The answer only loses exactness if
			// unscanned work actually remained.
			if _, ok := q.PopMin(); ok {
				r.qos.MarkTruncated()
			}
			q.MarkFinished()
			return
		}
		var t0 time.Time
		if bd.Enabled() {
			t0 = time.Now()
		}
		item, ok := q.PopMin()
		if bd.Enabled() {
			bd.Add(stats.PhasePQRemove, time.Since(t0))
		}
		if !ok {
			q.MarkFinished()
			return
		}
		if limit := r.bnd.Load(); item.Priority*r.escale >= limit {
			// Everything left in this min-queue is at least as far:
			// abandon the whole queue (Algorithm 8 lines 8-10). Under
			// ε-inflation the popped minimum bounds every remaining item,
			// so it is the single witness for the whole queue.
			if item.Priority < limit {
				r.qos.PruneEps(item.Priority)
			}
			ctrs.AddLeavesPruned(1)
			q.MarkFinished()
			return
		}
		if bd.Enabled() {
			t0 = time.Now()
		}
		r.scanLeaf(item.Value, scratch)
		if bd.Enabled() {
			bd.Add(stats.PhaseDistCalc, time.Since(t0))
		}
	}
}

// scanLeaf is Algorithm 9 (CalculateRealDistance), restructured around
// the segment-major leaf layout into filter → gather-ahead → refine: the
// whole leaf's lower bounds are accumulated into the worker's scratch
// buffer by streaming each symbol column against its distance-table row (w
// tight table-load-and-add column loops — no per-entry word gather, no
// branches), the surviving entries are compacted, and only those reach the
// refine stage.
func (r *SearchRun) scanLeaf(leaf *tree.Node, scratch *leafScratch) {
	// Worker-panic tests poison one leaf scan here to prove the engine
	// confines the blast radius to a single query. Disarmed, this is
	// one atomic load per leaf — invisible next to the scan itself.
	if err := fpScanLeaf.Hit(); err != nil {
		panic(err)
	}
	if leaf.LeafLen() == 0 {
		return
	}
	lbs := scratch.accumulate(leaf, r.table, r.ix.Schema.Segments)
	cand := scratch.filter(lbs, r.table.Scale(), r.bnd.Load(), r.qos)
	r.ix.refine(leaf, cand, lbs, r.kern, scratch, r.bnd, r.qos, r.ctrs)
}

// refine is the single real-distance candidate loop behind every search
// path: it measures the leaf entries listed in cand, in that order, against
// bnd (see refineBatch for the batching). lbs holds the entries' lower
// bounds, each re-checked against the bound as it stands when its candidate
// comes up; a nil lbs (the approximate search, which has none) skips the
// re-check. The bound is cached locally and refreshed per batch and after
// every improvement instead of loading the shared atomic per candidate — a
// stale (larger) threshold only admits extra candidates, never wrongly
// prunes.
func (ix *Index) refine(leaf *tree.Node, cand []int32, lbs []float64, kern kernel,
	scratch *leafScratch, bnd bound, qos *QoS, ctrs *stats.Counters) {

	escale := qos.Scale()
	lbCount, realCount := int64(len(lbs)), int64(0)
	for len(cand) > 0 {
		batch := cand
		if len(batch) > refineBatch {
			batch = batch[:refineBatch]
		}
		cand = cand[len(batch):]
		var sink uint32
		for _, e := range batch {
			row := ix.Data.At(int(leaf.Positions[e]))
			for i := 0; i < len(row); i += lineFloats {
				sink += math.Float32bits(row[i])
			}
		}
		scratch.sink += sink
		limit := bnd.Load()
		for _, e := range batch {
			if lbs != nil {
				if lb := lbs[e]; lb*escale >= limit {
					if escale > 1 && lb < limit {
						// Candidate skipped only because of ε-inflation.
						qos.PruneEps(lb)
					}
					continue
				}
			}
			pos := leaf.Positions[e]
			d, nLB, nReal := kern.dist(ix.Data.At(int(pos)), limit)
			lbCount += nLB
			realCount += nReal
			if d < limit {
				if bnd.Update(d, int64(pos)) {
					ctrs.AddBSFUpdate()
				}
				limit = bnd.Load()
			}
		}
	}
	ctrs.AddLowerBound(lbCount)
	ctrs.AddRealDist(realCount)
}

// Scan is the position-order counterpart of refine: it measures every
// series of a flat collection with the request's kernel against coll,
// offering series i as position start+i. There are no summaries to filter
// on and nothing for ε to inflate, so the collection is searched exactly
// whatever the request's mode — which a live index's delta, small by
// construction, affords. The request must have passed Validate and
// CheckShape.
func Scan(req Request, data *series.Collection, start int64, coll Collector) {
	scanRange(data, 0, data.Count(), newKernel(req),
		mappedBound{inner: coll, toGlobal: func(i int64) int64 { return start + i }}, req.Counters)
}

// scanRange measures data's series [lo,hi) in position order against bnd,
// which is read before every candidate: another run sharing it may have
// tightened it meanwhile.
func scanRange(data *series.Collection, lo, hi int, kern kernel, bnd bound, ctrs *stats.Counters) {
	var lbCount, realCount int64
	for i := lo; i < hi; i++ {
		limit := bnd.Load()
		d, nLB, nReal := kern.dist(data.At(i), limit)
		lbCount += nLB
		realCount += nReal
		if d < limit && bnd.Update(d, int64(i)) {
			ctrs.AddBSFUpdate()
		}
	}
	ctrs.AddLowerBound(lbCount)
	ctrs.AddRealDist(realCount)
}

// approxSearch seeds the bound (Figure 4(a)): take the best real distances
// inside the leaf matching the query's iSAX word — every entry is a
// candidate, with no lower bounds to filter on. The paper's
// progressive-search citation observes this initial answer is usually very
// close to the exact one. It reports whether the descent reached any
// candidate at all.
func (ix *Index) approxSearch(qpaa []float64, qword []uint8, tab *isax.DistTable,
	kern kernel, bnd bound, ctrs *stats.Counters) bool {

	leaf := ix.approxLeaf(qpaa, qword, tab, ctrs)
	if leaf == nil || leaf.LeafLen() == 0 {
		return false
	}
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	ix.refine(leaf, scratch.all(leaf.LeafLen()), nil, kern, scratch, bnd, nil, ctrs)
	return true
}

// approxLeaf descends to the leaf matching the query's iSAX word. A nil
// tab (an approximate Euclidean run) makes the scalar kernel serve the rare
// empty-subtree fallback; every other run passes its already-built table.
func (ix *Index) approxLeaf(qpaa []float64, qword []uint8, tab *isax.DistTable,
	ctrs *stats.Counters) *tree.Node {

	root := ix.Tree.Root(ix.Schema.RootIndex(qword))
	if root == nil {
		// The query's own subtree is empty: fall back to the root child
		// with the smallest lower bound.
		best := math.Inf(1)
		for _, slot := range ix.activeRoots {
			r := ix.Tree.Root(int(slot))
			var d float64
			if tab != nil {
				d = tab.MinDistPrefix(r.Symbols, r.Bits)
			} else {
				d = ix.Schema.MinDistPAAPrefix(qpaa, r.Symbols, r.Bits)
			}
			ctrs.AddLowerBound(1)
			if d < best {
				best = d
				root = r
			}
		}
	}
	if root == nil {
		return nil // empty tree; NewRun rules this out
	}
	return ix.Tree.DescendToLeaf(root, qword)
}
