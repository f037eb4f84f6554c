package core

import (
	"math"
	"math/bits"
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
// the whole recovery chain (worker goroutine → per-query recorder →
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
// Both candidate loops, refine and scanRange, call measure per candidate
// and flush once at their end, and know nothing else of the flavour.
type kernel interface {
	// prepare fills tab from the summary this flavour prunes with (the
	// query's PAA, or its LB_Keogh envelope).
	prepare(tab *isax.DistTable, qpaa []float64)
	// measure takes raw candidate x, at local position pos, against the
	// pruning limit: a squared distance below limit is offered to coll as
	// start+pos. The kernel may hold x in the worker's scratch s until a
	// later measure or flush. It counts into s.n and returns the limit as
	// it stands after.
	measure(s *leafScratch, x []float32, pos int32, limit float64, coll Collector, start int64) float64
	// flush measures, against limit, whatever measure still holds, and
	// returns the limit after.
	flush(s *leafScratch, limit float64, coll Collector, start int64) float64
}

// newKernel returns the kernel of a checked request.
func newKernel(req Request) kernel {
	if req.DTW {
		upper, lower := dtw.Envelope(req.Query, req.Window)
		return &warped{query: req.Query, window: req.Window, upper: upper, lower: lower}
	}
	return &euclidean{query: req.Query}
}

// euclidean is the paper's default kernel: the early-abandoning squared
// Euclidean distance to the query. Its methods take a pointer, as warped's
// do: a value receiver would send every candidate through a wrapper that
// copies measure's arguments (a forced scan of 20 000 × 128 series on one
// worker, in cache: 626–629 µs per query against 590–611).
type euclidean struct{ query []float32 }

func (*euclidean) prepare(tab *isax.DistTable, qpaa []float64) { tab.BuildPAA(qpaa) }

func (k *euclidean) measure(s *leafScratch, x []float32, pos int32, limit float64, coll Collector, start int64) float64 {
	s.n.RealDistCalcs++
	if d := vector.SquaredEuclideanEarlyAbandon(x, k.query, limit); d < limit {
		if coll.Update(d, start+int64(pos)) {
			s.n.BSFUpdates++
		}
		limit = coll.Load()
	}
	return limit
}

func (*euclidean) flush(_ *leafScratch, limit float64, _ Collector, _ int64) float64 { return limit }

// narrowShare is the sampled share up to which a tree-plan run is narrow
// (see SearchRun.Narrow). A run that samples none, a k-NN run whose
// collector the approximate search left unfilled, counts as sharing 1, so
// it is never narrow. A DTW run is held to the same share, unmeasured
// there: serve-dtw's queries all share 0.45 or more. The share is measured
// on Euclidean runs (500 k × 128
// series of each dataset family, 10 queries per noise tier at 10, 3 and 0
// dB, the tree-plan ones kept). Each query was timed whole on 1 worker (T1)
// and on 2 (T2), and under two-client contention: two copies side by side on
// one worker each (narrow), or taking turns through a two-worker gate after
// preparing outside it (wide), mean of 8 each, best of two. Two queries
// meeting once would favour narrow while T1 < 1.5·T2, and most break that:
// T1/T2 reads 0.97–1.94 (median 1.37) on random walks at shares up to 0.1
// and 1.27–2.83 (1.92) above, 0.94–2.48 (1.32) and 1.46–2.28 (1.90) on
// seismic-like, 1.48–2.03 on SALD-like (shares 0.057–0.266). Measured,
// narrow/wide reads 0.66–1.02 (median 0.89) and 0.70–1.30 (1.06) on random
// walks, 0.55–1.28 (0.74) and 0.80–1.17 (1.04) on seismic-like, 0.94–1.13
// (1.01–1.04) on SALD-like: the turns overlap one query's preparation with
// the other's search. Narrowing the queries whose share is at most t gives
// contended means at t = 0/0.02/0.05/0.1/0.2/0.5 of: random walks 3.39/
// 3.36/3.36/3.36/3.46/3.50 ms, seismic-like 3.90/3.86/3.87/3.84/3.84/4.01,
// SALD-like 3.05 up to 0.05, then 3.06/3.08/3.13. At 0.1 every family is
// within 0.4 % of its best point, and by 0.2 random walks are 3 % above it.
// A server's HTTP work, which also runs off the gate, only favours narrow
// more.
const narrowShare = 0.1

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
// lower-bound accumulators, the entries that survive them, the sink of the
// refine stage's gather-ahead loads and the quantized pre-filter's table
// and mask (per worker, never shared, so concurrent scans do not race on
// it), and the DTW kernel's pending batch. Workers borrow one from
// scratchPool for the duration of a drain or scan phase, a seed or a Scan.
type leafScratch struct {
	lb   []float64
	cand []int32
	sink uint32

	// dtw holds the warped kernel's candidates, with their positions,
	// until their LB_Keogh pass and their DPs run; it is empty again once
	// a candidate loop flushes.
	dtw dtw.Batch

	// n holds what the kernel counted until the candidate loop folds it
	// into the worker's tally (see fold). A tally pointer handed to the
	// kernel's interface methods would move every worker's tally to the
	// heap; the scratch is there already.
	n stats.Tally

	// qtab holds the run's distance-table rows quantized for qlimit, each
	// padded to 256 cells (see quantized); qlimit is 0 while it holds none.
	qtab   [isax.MaxSegments * 256]uint8
	qlimit float64
	mask   []uint64
}

// The quantized pre-filter: a cell c becomes min(255, ⌊c/Δ⌋) with
// Δ = (limit/Scale())/quantT·(1+quantSlack), so an entry whose saturated
// sum of quantized cells reaches quantT has a cell sum of at least
// quantT·Δ — its float64 bound is ≥ limit even after the rounding of every
// operation on the way (w + 5 of them, each within 2⁻⁵³), and it is pruned
// without a witness, as the exact filter would prune it. A worker
// quantizes once per drain phase, at its first leaf with a finite bound:
// the bound only falls, so the table stays sound, and re-quantizing below
// 0.9 or 0.7 of its limit did not pay (500 k random walks, 2 workers, 40
// queries per tier, mean ms, never / 0.9 / 0.7: 10 dB 3.52 / 3.37 / 3.67,
// 3 dB 18.7 / 19.0 / 18.3, 0 dB 29.3 / 30.0 / 28.9).
const (
	quantT     = 250
	quantSlack = 1e-9
)

// fold adds the kernel's counts to the worker's tally t and zeroes them.
func (s *leafScratch) fold(t *stats.Tally) {
	t.Add(s.n)
	s.n = stats.Tally{}
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

// filter is the first stage of a leaf scan: it leaves in lbs the lower
// bound of every entry it could not rule out by its quantized sum, and
// compacts the entries whose bound survives limit into the scratch's
// candidate list, in entry order. With VBMI and a finite, positive limit
// the kernel's mask picks the entries that get a float64 bound, summed
// column by column as accumulate sums it; otherwise every entry gets one,
// and so does a leaf more than two-thirds unmasked, where the mask saves
// less than it costs (BenchmarkLeafFilter, 2 000 entries at w = 16,
// pre-filter / exact: 2.7 / 33 µs with 2 % of the entries passing, 16 / 44
// at 25 %, 22–30 / 46–55 at 50 %). refine re-checks every survivor against
// the bound as it stands by then. An entry dropped here under ε-inflation
// is recorded as a witness even if a tighter, later bound would have
// pruned it without inflation; such a witness is no smaller than the final
// answer, and Finish ignores those.
func (s *leafScratch) filter(leaf *tree.Node, tab *isax.DistTable, limit float64, qos *QoS) ([]float64, []int32) {
	w, n, scale := tab.Schema().Segments, leaf.LeafLen(), tab.Scale()
	lbs, cand := s.bounds(n), s.candidates(n)
	if useVBMI && s.quantized(tab, limit) {
		words := (n + 63) / 64
		if cap(s.mask) < words {
			s.mask = make([]uint64, words)
		}
		mask := s.mask[:words]
		leafMaskVBMI(&leaf.Words[0], leaf.Stride, n, w, &s.qtab[0], quantT, &mask[0])
		for b, m := range mask {
			for ; m != 0; m &= m - 1 {
				cand = append(cand, int32(b*64+bits.TrailingZeros64(m)))
			}
		}
		if 3*len(cand) <= 2*n {
			row, col := tab.Row(0), leaf.Col(0)
			for _, e := range cand {
				lbs[e] = row[col[e]]
			}
			for seg := 1; seg < w; seg++ {
				row, col = tab.Row(seg), leaf.Col(seg)
				for _, e := range cand {
					lbs[e] += row[col[e]]
				}
			}
			kept := cand[:0]
			for _, e := range cand {
				lbs[e] *= scale
				if !qos.prunes(lbs[e], limit) {
					kept = append(kept, e)
				}
			}
			return lbs, kept
		}
		cand = cand[:0]
	}
	s.accumulate(leaf, tab, w)
	for e, sum := range lbs {
		lb := sum * scale
		lbs[e] = lb
		if !qos.prunes(lb, limit) {
			cand = append(cand, int32(e))
		}
	}
	return lbs, cand
}

// quantized reports whether the scratch's quantized table serves limit,
// quantizing the run's table if it holds none. A limit of 0, +Inf or NaN
// cannot be quantized.
func (s *leafScratch) quantized(tab *isax.DistTable, limit float64) bool {
	if s.qlimit > 0 && limit <= s.qlimit {
		return true
	}
	s.qlimit = 0
	delta := limit / tab.Scale() / quantT * (1 + quantSlack)
	if !(delta > 0) || math.IsInf(delta, 1) {
		return false
	}
	for seg := range tab.Schema().Segments {
		q := s.qtab[seg*256:]
		for sym, c := range tab.Row(seg) {
			if v := c / delta; v < 255 {
				q[sym] = uint8(v)
			} else {
				q[sym] = 255
			}
		}
	}
	s.qlimit = limit
	return true
}

// LeafFilter names the leaf scans' lower-bound filter in use: "avx512vbmi"
// (the quantized pre-filter) or "go" (the exact filter alone).
func LeafFilter() string {
	if useVBMI {
		return "avx512vbmi"
	}
	return "go"
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
//	InsertPhase — the tree pass or the scan. On the tree plan: claim
//	              blocks of root subtrees via Fetch&Inc, prune each root
//	              by its key from the distance table's root level, walk
//	              the survivors, push non-prunable leaves into the queues
//	              (lines 1-6). On the scan plan: claim blocks of positions
//	              via Fetch&Inc and measure every series of each in
//	              position order.
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
	share  float64 // the sampled share the plan read (the envelope's under DTW); 1 where it read none
	// claimCtr is written by every worker at every claim, while the fields
	// around it are read at every node; the padding keeps it on a cache
	// line of its own (sharing one cost the serve-easy benchmark ~10 % of
	// its p50 on a 2-core Xeon).
	_        [64]byte
	claimCtr atomic.Int64 // Fetch&Inc cursor: root blocks, or scan blocks
	_        [56]byte
	opt      SearchOptions
	qos      *QoS // opt.QoS
	trace    bool // req.Trace: time the phases
	done     bool // the answer is complete after init (ModeApprox)
	scan     bool // the scan plan: InsertPhase scans, DrainPhase is a no-op
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
// API layer handles both). The index is never empty: Build refuses an
// empty collection, and Restore requires a non-empty one.
func (ix *Index) NewRun(req Request, st *QueryState, opt SearchOptions) *SearchRun {
	r := &SearchRun{ix: ix, bnd: opt.Shared, share: 1,
		opt: opt.withDefaults(ix.Opts), qos: opt.QoS, trace: req.Trace}
	r.init(req, st)
	return r
}

// init builds the kernel, computes the query summaries into st's buffers,
// seeds the collector via the approximate search and, unless that already
// completes the run, builds the per-query distance table, chooses the plan
// and, for the tree plan, sizes st's queue set.
func (r *SearchRun) init(req Request, st *QueryState) {
	var t stats.Tally
	var tInit time.Time
	if r.trace {
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
	found := r.approxSearch(req, qpaa, qword, &t)
	// An approximate run whose descent reached no candidate falls back to
	// the exact search simply by not being done.
	r.done = req.Mode == ModeApprox && found
	if !r.done {
		if lazyTable {
			r.prepareTable(st, qpaa)
		}
		r.scan = r.scanPays()
		if r.scan {
			t.ScanPlans++
		} else {
			st.queues.Resize(r.opt.Queues, 64)
			r.queues = &st.queues
		}
	}
	if r.trace {
		t.Phases[stats.PhaseInit] = time.Since(tInit)
	}
	r.qos.add(t)
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

// crossover is the sampled share (see SearchRun.sampledShare) above which
// a run scans, whatever its kernel: lower-bound tightness decides whether
// the tree pays ("Data Series Indexing Gone Parallel", PAPERS.md), and a
// DTW run samples its share against the envelope table, as its leaf filter
// prunes. It is measured (BenchmarkPlanCrossover, 2 workers, two runs; the
// queries are noise at 10, 3, 0 and −3 dB plus OOD, 10 per tier). The tree
// gathers candidates in leaf order and the scan streams them.
//
// Euclidean, 500 k × 128 series of each dataset family: OOD queries
// (shares ≥ 0.94) cost 44–62 ms on the tree and 24–31 ms scanned, 10 dB
// queries 0.4–4.5 ms on the tree and 16–26 ms scanned, and the tree wins
// nearly every noise query up to a share of 0.5; only some −3 dB queries,
// at shares of 0.43–0.76, go either way (tree/scan 0.72–1.34). Scanning
// the queries whose share exceeds t gives sweep means at t = 0.3/0.4/0.5/
// 0.6 of: random walks 13.4–13.5/11.9–12.0/11.9–12.0/11.9–12.0 ms (tree
// alone 16.7–16.9, scan alone 23.6–23.9), seismic-like 15.3–16.2/
// 14.8–15.7/14.1–15.0/13.8–14.7 ms (19.5–20.8, 24.1–25.0), SALD-like
// 9.0–10.4/8.9–10.2/8.9–10.2/8.9–10.2 ms (12.1–15.0, 21.2–24.1). At 0.5
// every family is at most 2.7 % above its best grid point.
//
// DTW, 25 000 × 128 random walks under a 10 % window (serve-dtw's shape,
// shares 0.30–1): up to a share of 0.5 the tree wins nearly every query
// (tree/scan 0.73–1.03), from 0.5 to 0.9 they go either way (0.72–1.11),
// and above 0.9 the scan wins all 35, OOD among them (1.02–1.57). Tree
// alone 5.37/5.48 ms, scan alone 4.93/4.92; the sweep is flat from 0.4 to
// 0.9, and at 0.5 (4.86/4.87) it is 0.3/0.2 % above its best grid point.
//
// It could not go lower anyway: member k-NN queries, whose 5th-nearest
// bound after the approximate search leaves shares of up to 0.49 on a small
// index, must keep the tree (TestRefineMatchesPlainLoop's plan rows).
const crossover = 0.5

// scanPays chooses the plan: the scan when the sampled share, which it
// records in r.share (left at 1 where it samples none), exceeds crossover.
// A k-NN collector that the approximate search could not fill bounds
// nothing yet — every word would survive +Inf — so its run keeps the tree,
// which fills the collector from the nearest leaves.
func (r *SearchRun) scanPays() bool {
	if math.IsInf(r.bnd.Load(), 1) {
		return false
	}
	r.share = r.sampledShare()
	return r.share > crossover
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

// Narrow reports whether a pending run can be started on one worker and
// lent more only while nobody else wants them: the plan kept the tree,
// whose queues a helper can leave at any pop, and its sampled share is at
// most narrowShare, so one worker costs it less than waiting for two. A
// scan-plan run or one with more to search wants every worker from the
// start. A DTW run is narrow or wide by the same rule, on the share of its
// envelope's bounds.
func (r *SearchRun) Narrow() bool { return !r.scan && r.share <= narrowShare }

// rootBlock is how many activeRoots entries a tree-pass worker claims per
// Fetch&Inc: one claim, and one stop check, per 256 root bounds.
const rootBlock = 256

// InsertPhase is the tree-traversal half of Algorithm 6: claim blocks of
// root subtrees via Fetch&Inc, sweep each block's root bounds from the
// distance table's root level (RootBound, by root key: no node is read),
// and hand the survivors to insert, which pushes a leaf and walks an
// internal node's children with traverse — or, on the scan plan, the whole
// search (see scanPhase). Every participating worker must call it exactly
// once, and all calls must return before the first DrainPhase call starts.
func (r *SearchRun) InsertPhase(pid int) {
	if r.done {
		return
	}
	if r.scan {
		r.scanPhase()
		return
	}
	cursor := pid % r.opt.Queues // round-robin insertion cursor (line 2)

	t := stats.Tally{Workers: 1} // every worker inserts once
	var tStart time.Time
	if r.trace {
		tStart = time.Now()
	}
	roots, k := r.ix.activeRoots, r.ix.Tree.RootBits()
	for {
		lo := int(r.claimCtr.Add(1)-1) * rootBlock
		if lo >= len(roots) || r.qos.stop() {
			break
		}
		block := roots[lo:min(lo+rootBlock, len(roots))]
		t.NodesVisited += int64(len(block))
		t.LowerBoundCalcs += int64(len(block))
		for _, key := range block {
			dist := r.table.RootBound(int(key), k)
			if !r.qos.prunes(dist, r.bnd.Load()) {
				r.insert(r.ix.Tree.Root(int(key)), dist, &cursor, &t)
			}
		}
	}
	if r.trace {
		t.Phases[stats.PhaseTreePass] = time.Since(tStart) - t.Phases[stats.PhasePQInsert]
	}
	r.qos.add(t)
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
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	t := stats.Tally{Workers: 1} // every worker inserts once
	var tStart time.Time
	if r.trace {
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
		scanRange(r.ix.Data, lo, min(lo+scanBlock, n), r.kern, scratch, r.bnd, r.opt.Start, &t)
	}
	if r.trace {
		t.Phases[stats.PhaseDistCalc] = time.Since(tStart)
	}
	r.qos.add(t)
}

// DrainPhase is the queue-processing half of Algorithm 6 (lines 8-13):
// drain queues until every queue is finished. A scan-plan run has no
// queues. A helper worker passes leave, asked before every pop: once it
// reports true the worker returns without popping, so no popped leaf is
// dropped, and counts one Yields; the workers that pass nil drain what it
// left behind.
func (r *SearchRun) DrainPhase(pid int, leave func() bool) {
	if r.done || r.scan {
		return
	}
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	scratch.qlimit = 0 // its table was another run's

	var t stats.Tally
	// The next queue to work on is chosen starting from a randomized
	// position — the load-balancing scheme the paper settled on ("workers
	// use randomization to choose the priority queues they will work on").
	rnd := uint64(pid)*0x9E3779B97F4A7C15 + 0x1234567
	for q := pid % r.opt.Queues; q >= 0 && t.Yields == 0; {
		r.processQueue(r.queues.Queue(q), scratch, leave, &t)
		rnd = rnd*6364136223846793005 + 1442695040888963407 // LCG step
		q = r.queues.NextUnfinished(int(rnd>>33) % r.opt.Queues)
	}
	r.qos.add(t)
}

// traverse is Algorithm 7 below the root: prune a subtree whose lower
// bound exceeds the BSF, else insert it. Node bounds are one table lookup
// per segment against the run's distance table. The worker's tally t takes
// the counts and, under a trace, the push times.
func (r *SearchRun) traverse(node *tree.Node, cursor *int, t *stats.Tally) {
	t.NodesVisited++
	t.LowerBoundCalcs++
	dist := r.table.MinDistPrefix(node.Symbols, node.Bits)
	if !r.qos.prunes(dist, r.bnd.Load()) {
		r.insert(node, dist, cursor, t)
	}
}

// insert takes a node whose bound dist survived: a non-empty leaf is pushed
// into the queues round-robin, an internal node's children are traversed.
func (r *SearchRun) insert(node *tree.Node, dist float64, cursor *int, t *stats.Tally) {
	if node.IsLeaf() {
		if node.LeafLen() == 0 {
			return
		}
		if r.trace {
			t0 := time.Now()
			r.queues.PushRoundRobin(cursor, dist, node)
			t.Phases[stats.PhasePQInsert] += time.Since(t0)
		} else {
			r.queues.PushRoundRobin(cursor, dist, node)
		}
		t.LeavesInserted++
		return
	}
	r.traverse(node.Left, cursor, t)
	r.traverse(node.Right, cursor, t)
}

// processQueue is Algorithm 8: repeatedly DeleteMin; once the popped bound
// is no better than the BSF (or the queue is empty, or the QoS state stops
// the run), mark the queue finished and return. A non-nil leave that
// reports true before a pop counts a yield and returns at once, the queue
// unfinished.
func (r *SearchRun) processQueue(q *pqueue.Queue[*tree.Node], scratch *leafScratch, leave func() bool, t *stats.Tally) {
	for {
		if q.Finished() {
			return
		}
		if leave != nil && leave() {
			t.Yields++
			return
		}
		var t0 time.Time
		if r.trace {
			t0 = time.Now()
		}
		item, ok := q.PopMin()
		if r.trace {
			t.Phases[stats.PhasePQRemove] += time.Since(t0)
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
			t.LeavesPruned++
			q.MarkFinished()
			return
		}
		if r.trace {
			t0 = time.Now()
		}
		r.scanLeaf(item.Value, scratch, t)
		if r.trace {
			t.Phases[stats.PhaseDistCalc] += time.Since(t0)
		}
	}
}

// scanLeaf is Algorithm 9 (CalculateRealDistance), restructured around
// the segment-major leaf layout into filter → gather-ahead → refine: the
// whole leaf's lower bounds come from streaming each symbol column against
// its distance-table row — first the quantized rows, 64 entries per VBMI
// instruction, then the float64 rows for what that pass could not rule out
// (see filter) — the surviving entries are compacted, and only those reach
// the refine stage.
func (r *SearchRun) scanLeaf(leaf *tree.Node, scratch *leafScratch, t *stats.Tally) {
	// Worker-panic tests poison one leaf scan here to prove the engine
	// confines the blast radius to a single query. Disarmed, this is
	// one atomic load per leaf — invisible next to the scan itself.
	if err := fpScanLeaf.Hit(); err != nil {
		panic(err)
	}
	if leaf.LeafLen() == 0 {
		return
	}
	lbs, cand := scratch.filter(leaf, r.table, r.bnd.Load(), r.qos)
	r.ix.refine(leaf, cand, lbs, r.kern, scratch, r.bnd, r.opt.Start, r.qos, t)
}

// refine is the single real-distance candidate loop behind every search
// path: it measures the leaf entries listed in cand, in that order, against
// coll, offering entry positions shifted by start (see refineBatch for the
// batching). lbs holds the entries' lower bounds, each re-checked against
// the bound as it stands when its candidate comes up; a nil lbs (the
// approximate search, which has none) skips the re-check. The bound is
// cached locally and refreshed per batch and after every improvement
// instead of loading the shared atomic per candidate — a stale (larger)
// threshold only admits extra candidates, never wrongly prunes. The counts
// go to the worker's tally t. The kernel measures the candidates in this
// order, and whatever it still holds at the leaf's end it flushes.
func (ix *Index) refine(leaf *tree.Node, cand []int32, lbs []float64, kern kernel,
	scratch *leafScratch, coll Collector, start int64, qos *QoS, t *stats.Tally) {

	t.LowerBoundCalcs += int64(len(lbs))
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
			limit = kern.measure(scratch, ix.Data.At(int(pos)), pos, limit, coll, start)
		}
	}
	kern.flush(scratch, coll.Load(), coll, start)
	scratch.fold(t)
}

// Scan is the position-order counterpart of refine: it measures every
// series of a flat collection with the request's kernel against coll,
// offering series i as position start+i. There are no summaries to filter
// on and nothing for ε to inflate, so the collection is searched exactly
// whatever the request's mode — which a live index's delta, small by
// construction, affords. The scan's counts join the query's tally in
// opt.QoS. The request must have passed Validate and CheckShape.
func Scan(req Request, data *series.Collection, opt SearchOptions) {
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	var t stats.Tally
	scanRange(data, 0, data.Count(), newKernel(req), scratch, opt.Shared, opt.Start, &t)
	opt.QoS.add(t)
}

// scanRange measures data's series [lo,hi) in position order against coll,
// offering series i as position start+i, and counts into the worker's
// tally t. The bound is read before every candidate: another run sharing it
// may have tightened it meanwhile.
func scanRange(data *series.Collection, lo, hi int, kern kernel, scratch *leafScratch,
	coll Collector, start int64, t *stats.Tally) {

	for i := lo; i < hi; i++ {
		kern.measure(scratch, data.At(i), int32(i), coll.Load(), coll, start)
	}
	kern.flush(scratch, coll.Load(), coll, start)
	scratch.fold(t)
}

// approxSearch seeds the bound (Figure 4(a)) from the leaf matching the
// query's iSAX word. The paper's progressive-search citation observes this
// initial answer is usually very close to the exact one. A ModeApprox run
// measures the whole leaf, its answer, with no lower bounds to filter on,
// and so does a k-NN run: its plan reads the kth distance, which a handful
// of entries bounds loosely (member 5-NN queries on a 2 000-series index
// had sampled shares of 0.49 from the whole leaf and 0.50–0.64 from its
// best 8–40 by bound, which would scan them). Every other run only needs a
// bound to start from, and the leaf it seeds from is searched again by the
// exact phases, so it measures just the seedSize entries with the smallest
// full-cardinality bounds, in bound order: one worker does this before the
// others start, and a leaf of a root sized to the collection holds up to a
// leaf capacity of entries (a whole one took serve-dtw's preparation from
// 1.6 to 7–9 ms). It reports whether the descent reached any candidate at
// all.
func (r *SearchRun) approxSearch(req Request, qpaa []float64, qword []uint8, t *stats.Tally) bool {
	leaf := r.ix.approxLeaf(qpaa, qword, r.table, t)
	if leaf == nil || leaf.LeafLen() == 0 {
		return false
	}
	scratch := scratchPool.Get().(*leafScratch)
	defer scratchPool.Put(scratch)
	if req.Mode == ModeApprox || req.K > 1 {
		r.ix.refine(leaf, scratch.all(leaf.LeafLen()), nil, r.kern, scratch, r.bnd, r.opt.Start, r.qos, t)
		return true
	}
	lbs := scratch.accumulate(leaf, r.table, r.ix.Schema.Segments)
	for e := range lbs {
		lbs[e] *= r.table.Scale()
	}
	cand := scratch.nearest(lbs, seedSize)
	r.ix.refine(leaf, cand, lbs, r.kern, scratch, r.bnd, r.opt.Start, r.qos, t)
	return true
}

// seedSize is how many entries of its leaf an exact, ε or deadline 1-NN
// run's seed measures: one refine batch.
const seedSize = refineBatch

// nearest returns the m entries with the smallest bounds in lbs, ties to
// the lower entry, in ascending (bound, entry) order: an insertion into a
// list of at most m, which an entry no better than the list's last skips.
func (s *leafScratch) nearest(lbs []float64, m int) []int32 {
	cand := s.candidates(m)
	for e, lb := range lbs {
		i := len(cand)
		if i < m {
			cand = append(cand, 0)
		} else if lb >= lbs[cand[m-1]] {
			continue
		} else {
			i-- // the last entry drops out
		}
		for ; i > 0 && lbs[cand[i-1]] > lb; i-- {
			cand[i] = cand[i-1]
		}
		cand[i] = int32(e)
	}
	return cand
}

// approxLeaf descends to the leaf matching the query's iSAX word. A nil
// tab (an approximate Euclidean run) makes the scalar kernel serve the rare
// empty-subtree fallback; every other run passes its already-built table.
func (ix *Index) approxLeaf(qpaa []float64, qword []uint8, tab *isax.DistTable, t *stats.Tally) *tree.Node {
	root := ix.Tree.Root(ix.Tree.RootKey(qword))
	if root == nil {
		// The query's own subtree is empty: fall back to the root child
		// with the smallest lower bound, dereferencing only the winner.
		best, slot := math.Inf(1), -1
		for _, key := range ix.activeRoots {
			var d float64
			if tab != nil {
				d = tab.RootBound(int(key), ix.Tree.RootBits())
			} else {
				r := ix.Tree.Root(int(key))
				d = ix.Schema.MinDistPAAPrefix(qpaa, r.Symbols, r.Bits)
			}
			t.LowerBoundCalcs++
			if d < best {
				best, slot = d, int(key)
			}
		}
		if slot >= 0 {
			root = ix.Tree.Root(slot)
		}
	}
	if root == nil {
		return nil // empty tree; Build and Restore rule this out
	}
	return ix.Tree.DescendToLeaf(root, qword)
}
