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

// fpScanLeaf is the failpoint inside the distance stage — hit once per
// leaf scan on the tree plan and once per claimed block on the scan plan,
// the deepest point of query execution on either, where a panic exercises
// the whole recovery chain (pool worker → per-query recorder →
// ErrQueryPanicked). An Error spec panics too: neither stage has an error
// return, and the engine's recovery is exactly what turns worker failures
// into typed per-query errors.
var fpScanLeaf = fault.Register("core.scanleaf")

// SearchOptions configures one query's run on one index. A zero Queues
// inherits the index options (which themselves default to the paper's
// values); how many workers execute the phases is the caller's choice.
type SearchOptions struct {
	Queues int // Nq: priority queues; 1 = MESSI-sq, >1 = MESSI-mq

	// Start is the global position of this index's first series: a member
	// of a sharded collection holds one contiguous range of it, so every
	// candidate found here reaches the collector as Start plus its local
	// position. Zero for a collection of one shard.
	Start int64

	// Shared is the query's collector (required), owned by the caller and
	// threaded through every concurrent run of the query — the sharded
	// fan-out, where a tight bound found in one shard prunes the searches
	// of all the others. It holds global positions (see Start), and
	// series outside any index (a live index's delta) are measured into it
	// by Scan; after every sibling finishes, its Matches are the fused
	// answer.
	Shared Collector

	// QoS is the query's quality-of-service state (required, built by
	// Request.NewQoS): it decides every prune and every stop, and proves
	// the answer's quality afterwards. Like Shared, one QoS is threaded
	// through every shard run of a fan-out.
	QoS *QoS
}

func (o SearchOptions) withDefaults(ixOpts Options) SearchOptions {
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
	// crossover is the sampled share (see SearchRun.sampledShare) above
	// which a position-order scan beats the tree; 1 or more means never.
	crossover() float64
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

// The Euclidean crossover is measured (BenchmarkPlanCrossover: 500 k × 128
// series of each dataset family, 10 queries per tier — noise at 10, 3, 0
// and −3 dB, and OOD — 2 workers, two runs). The tree gathers candidates in
// leaf order and the scan streams them: OOD queries (shares ≥ 0.975) cost
// 41–70 ms on the tree and 25–33 ms scanned, 10 dB queries (shares ≤ 0.134)
// 2–14 ms on the tree and 16–33 ms scanned, and between them the per-query
// ratio is noisy (tree/scan 0.58–1.89 at shares 0.3–0.7). Scanning the
// queries whose share exceeds t gives sweep means at t = 0.3/0.5/0.6 of:
// random walks 17.1–17.2/17.3–17.6/17.3–17.4 ms (tree alone 23.0),
// seismic-like 18.2–18.4/18.9–19.0/19.8–20.2 ms (26.6–27.0), SALD-like
// 10.4–11.1/10.2–10.9/10.2–10.9 ms (13.9–14.8). From 0.3 to 0.5 every family
// is at most 4.0 % above its best; at 0.6 seismic-like is 8–11 % above. The
// constant is the largest of those, which keeps the most queries — all of
// the sweep's 10 dB and 3 dB ones — on the tree.
func (euclidean) crossover() float64 { return 0.5 }

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
	cand := s.candidates(len(lbs))
	for e, sum := range lbs {
		lb := sum * scale
		lbs[e] = lb
		if !qos.prunes(lb, limit) {
			cand = append(cand, int32(e))
		}
	}
	return cand
}

var scratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// QueryState holds the per-query scratch resources — PAA buffer, iSAX word
// buffer, the per-query distance table, and the priority-queue set — that
// the query engine reuses across queries instead of reallocating per
// search. Every SearchRun is backed by one, and a QueryState may back at
// most one SearchRun at a time; the zero value is ready to use.
type QueryState struct {
	paaBuf  []float64
	wordBuf []uint8
	table   *isax.DistTable
	queues  pqueue.Set[*tree.Node]
}

// NewQueryState returns an empty reusable scratch state.
func NewQueryState() *QueryState { return &QueryState{} }

// SearchRun is one in-flight query on one index: the shared per-query state
// (collector, priority queues, claim counter) that any number of workers
// operate on. It decomposes Algorithm 6 into two phases, which the query
// engine (internal/engine) dispatches as units of work:
//
//	InsertPhase — the tree pass or the scan. On the tree plan: claim root
//	              subtrees via Fetch&Inc, prune, push non-prunable leaves
//	              into the queues (lines 1-6). On the scan plan: claim
//	              blocks of positions via Fetch&Inc and measure every
//	              series of each in position order.
//	DrainPhase  — after every InsertPhase call has returned (the
//	              all-inserted barrier of line 7), drain queues until all
//	              are finished (lines 8-13); nothing on the scan plan.
//
// The plan is chosen once, in preparation, from the index's word sample
// (see sampledShare): a query whose lower bounds cannot prune skips the
// tree pass and the queues.
//
// All phase methods are safe for concurrent use; pid distinguishes
// workers for queue-cursor and randomization purposes.
type SearchRun struct {
	ix     *Index
	kern   kernel          // the distance flavour: Euclidean or DTW
	table  *isax.DistTable // per-query MINDIST table; nil until prepareTable
	bnd    Collector       // opt.Shared
	queues *pqueue.Set[*tree.Node]
	// claimCtr is written by every worker at every claim, while the fields
	// around it are read at every node; the padding keeps it on a cache
	// line of its own (sharing one cost the serve-easy benchmark ~10 % of
	// its p50 on a 2-core Xeon).
	_        [64]byte
	claimCtr atomic.Int64 // Fetch&Inc cursor: root subtrees, or scan blocks
	_        [56]byte
	opt      SearchOptions
	ctrs     *stats.Counters  // nil = not counting
	bd       *stats.Breakdown // nil = not tracing
	qos      *QoS             // opt.QoS
	done     bool             // the answer is complete after init (ModeApprox)
	scan     bool             // the scan plan: InsertPhase scans, DrainPhase is a no-op
}

// NewRun prepares one query on this index — the only place a SearchRun is
// built. The request selects the distance kernel (DTW or Euclidean);
// opt.Shared is the collector it fills and opt.QoS the ε/deadline state
// built from the same request. Preparation computes the query's PAA and
// iSAX summaries and seeds the collector with the approximate search. A
// ModeApprox run is complete at that point (see Done); every other mode
// then runs the two phases. st is the run's scratch, borrowed for its
// lifetime. The request must have passed Validate and CheckShape, and the
// query must already be z-normalized if the indexed data is (the public
// API layer handles both).
func (ix *Index) NewRun(req Request, st *QueryState, opt SearchOptions) (*SearchRun, error) {
	if ix.Data.Count() == 0 {
		return nil, ErrEmptyIndex
	}
	r := &SearchRun{ix: ix, bnd: opt.Shared,
		opt: opt.withDefaults(ix.Opts), ctrs: req.Counters, bd: req.Breakdown, qos: opt.QoS}
	r.init(req, st)
	return r, nil
}

// init builds the kernel, computes the query summaries into st's buffers,
// seeds the collector via the approximate search and, unless that already
// completes the run, builds the per-query distance table, chooses the plan
// and, for the tree plan, sizes st's queue set.
func (r *SearchRun) init(req Request, st *QueryState) {
	var tInit time.Time
	if r.bd.Enabled() {
		tInit = time.Now()
	}
	r.kern = newKernel(req)
	qpaa := paa.Transform(req.Query, r.ix.Schema.Segments, st.paaBuf)
	qword := r.ix.Schema.WordFromPAA(qpaa, st.wordBuf)
	st.paaBuf, st.wordBuf = qpaa, qword
	// An approximate Euclidean answer reads the table only in the rare
	// empty-subtree fallback, and its point is to be cheap: it builds the
	// table only if it has to go on to the exact phases.
	lazyTable := req.Mode == ModeApprox && !req.DTW
	if !lazyTable {
		r.prepareTable(st, qpaa)
	}
	found := r.approxSearch(qpaa, qword)
	// An approximate run whose descent reached no candidate falls back to
	// the exact search simply by not being done.
	r.done = req.Mode == ModeApprox && found
	if !r.done {
		if lazyTable {
			r.prepareTable(st, qpaa)
		}
		r.scan = r.scanPays()
		if r.scan {
			r.ctrs.AddScanPlan()
		} else {
			st.queues.Resize(r.opt.Queues, 64)
			r.queues = &st.queues
		}
	}
	if r.bd.Enabled() {
		r.bd.Add(stats.PhaseInit, time.Since(tInit))
	}
}

// prepareTable readies st's distance table as the run's and fills it from
// the query summary the kernel prunes with.
func (r *SearchRun) prepareTable(st *QueryState, qpaa []float64) {
	// The table's geometry is schema-bound; a pooled state may have last
	// served another generation or a sibling shard, so recheck — same
	// geometry means the buffer is reusable.
	if st.table == nil || !st.table.Schema().SameGeometry(r.ix.Schema) {
		st.table = r.ix.Schema.NewDistTable()
	}
	r.table = st.table
	r.kern.prepare(r.table, qpaa)
}

// scanPays chooses the plan: the scan when the sampled share exceeds the
// kernel's crossover. A k-NN collector that the approximate search could not
// fill bounds nothing yet — every word would survive +Inf — so its run
// keeps the tree, which fills the collector from the nearest leaves.
func (r *SearchRun) scanPays() bool {
	crossover := r.kern.crossover()
	if crossover >= 1 || math.IsInf(r.bnd.Load(), 1) {
		return false
	}
	return r.sampledShare() > crossover
}

// sampledShare is the plan's predictor: the share of the index's sampled
// words whose full-cardinality lower bound survives the bound as it stands
// after the approximate search — the filter's own comparison, on the
// sample instead of on a leaf. Lower-bound tightness is what decides
// whether iSAX pruning pays ("Data Series Indexing Gone Parallel",
// PAPERS.md): this share estimates how much of the collection the refine
// stage would gather in leaf order. The probes are plan cost (25 µs at
// w = 16), not search work: they are not counted and record no ε witness.
func (r *SearchRun) sampledShare() float64 {
	w := r.ix.Schema.Segments
	limit := r.bnd.Load()
	survivors := 0
	for i := 0; i < len(r.ix.sample); i += w {
		if r.table.MinDistWord(r.ix.sample[i:i+w])*r.qos.scale < limit {
			survivors++
		}
	}
	return float64(survivors) / float64(len(r.ix.sample)/w)
}

// Done reports whether the run's answer was complete after preparation —
// a ModeApprox run whose descent found candidates. The phases of a done
// run are no-ops.
func (r *SearchRun) Done() bool { return r.done }

// InsertPhase is the tree-traversal half of Algorithm 6: claim root
// subtrees via Fetch&Inc and push non-prunable leaves into the queues — or,
// on the scan plan, the whole search (see scanPhase). Every participating
// worker must call it exactly once, and all calls must return before the
// first DrainPhase call starts.
func (r *SearchRun) InsertPhase(pid int) {
	if r.done {
		return
	}
	if r.scan {
		r.scanPhase()
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
		i := int(r.claimCtr.Add(1) - 1)
		if i >= len(r.ix.activeRoots) {
			break
		}
		if r.qos.stop() {
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

// scanBlock is how many positions a scan-plan worker claims at a time: 512
// KB of 128-point series, a fraction of a millisecond of streaming, so the
// stop check at each claim is as prompt as the tree plan's per leaf.
const scanBlock = 1024

// scanPhase is the scan plan: claim blocks of positions via Fetch&Inc, as
// the tree pass claims roots, and measure each block in position order
// against the run's bound — the shard's flat data read as a stream, where
// the tree plan would gather the same series in leaf order.
func (r *SearchRun) scanPhase() {
	var tStart time.Time
	if r.bd.Enabled() {
		tStart = time.Now()
	}
	n := r.ix.Data.Count()
	for {
		lo := int(r.claimCtr.Add(1)-1) * scanBlock
		if lo >= n {
			break
		}
		if r.qos.stop() {
			break
		}
		if err := fpScanLeaf.Hit(); err != nil {
			panic(err)
		}
		scanRange(r.ix.Data, lo, min(lo+scanBlock, n), r.kern, r.bnd, r.opt.Start, r.ctrs)
	}
	if r.bd.Enabled() {
		r.bd.Add(stats.PhaseDistCalc, time.Since(tStart))
	}
}

// DrainPhase is the queue-processing half of Algorithm 6 (lines 8-13):
// drain queues until every queue is finished. A scan-plan run has no
// queues.
func (r *SearchRun) DrainPhase(pid int) {
	if r.done || r.scan {
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
	if r.qos.prunes(dist, r.bnd.Load()) {
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
// is no better than the BSF (or the queue is empty, or the QoS state stops
// the run), mark the queue finished and return.
func (r *SearchRun) processQueue(q *pqueue.Queue[*tree.Node], scratch *leafScratch,
	ctrs *stats.Counters, bd *stats.Breakdown) {

	for {
		if q.Finished() {
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
		if !ok || r.qos.stop() {
			q.MarkFinished()
			return
		}
		if r.qos.prunes(item.Priority, r.bnd.Load()) {
			// Everything left in this min-queue is at least as far:
			// abandon the whole queue (Algorithm 8 lines 8-10). Under
			// ε-inflation the popped minimum bounds every remaining item,
			// so it is the single witness for the whole queue.
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
	r.ix.refine(leaf, cand, lbs, r.kern, scratch, r.bnd, r.opt.Start, r.qos, r.ctrs)
}

// refine is the single real-distance candidate loop behind every search
// path: it measures the leaf entries listed in cand, in that order, against
// coll, offering entry positions shifted by start (see refineBatch for the
// batching). lbs holds the entries' lower bounds, each re-checked against
// the bound as it stands when its candidate comes up; a nil lbs (the
// approximate search, which has none) skips the re-check. The bound is
// cached locally and refreshed per batch and after every improvement
// instead of loading the shared atomic per candidate — a stale (larger)
// threshold only admits extra candidates, never wrongly prunes.
func (ix *Index) refine(leaf *tree.Node, cand []int32, lbs []float64, kern kernel,
	scratch *leafScratch, coll Collector, start int64, qos *QoS, ctrs *stats.Counters) {

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
		limit := coll.Load()
		for _, e := range batch {
			if lbs != nil && qos.prunes(lbs[e], limit) {
				continue
			}
			pos := leaf.Positions[e]
			d, nLB, nReal := kern.dist(ix.Data.At(int(pos)), limit)
			lbCount += nLB
			realCount += nReal
			if d < limit {
				if coll.Update(d, start+int64(pos)) {
					ctrs.AddBSFUpdate()
				}
				limit = coll.Load()
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
	scanRange(data, 0, data.Count(), newKernel(req), coll, start, req.Counters)
}

// scanRange measures data's series [lo,hi) in position order against coll,
// offering series i as position start+i. The bound is read before every
// candidate: another run sharing it may have tightened it meanwhile.
func scanRange(data *series.Collection, lo, hi int, kern kernel, coll Collector, start int64, ctrs *stats.Counters) {
	var lbCount, realCount int64
	for i := lo; i < hi; i++ {
		limit := coll.Load()
		d, nLB, nReal := kern.dist(data.At(i), limit)
		lbCount += nLB
		realCount += nReal
		if d < limit && coll.Update(d, start+int64(i)) {
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
func (r *SearchRun) approxSearch(qpaa []float64, qword []uint8) bool {
	leaf := r.ix.approxLeaf(qpaa, qword, r.table, r.ctrs)
	if leaf == nil || leaf.LeafLen() == 0 {
		return false
	}
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	r.ix.refine(leaf, scratch.all(leaf.LeafLen()), nil, r.kern, scratch, r.bnd, r.opt.Start, r.qos, r.ctrs)
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
