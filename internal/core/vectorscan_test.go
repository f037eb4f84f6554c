package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/paa"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vector"
)

// naive1NN is a reference exact search built entirely on the pre-table
// scalar kernels and per-entry word gathers: walk every leaf, prune each
// entry with MinDistPAAWordNaive against the running best, early-abandon
// the real distance. The vectorized engine must return identical answers.
func naive1NN(ix *Index, query []float32) Match {
	w := ix.Schema.Segments
	qpaa := paa.Transform(query, w, nil)
	wordBuf := make([]uint8, w)
	best := Match{Position: -1, Dist: math.Inf(1)}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistPAAWordNaive(qpaa, n.Word(i, w, wordBuf)) >= best.Dist {
				continue
			}
			pos := n.Positions[i]
			d := vector.SquaredEuclideanEarlyAbandon(ix.Data.At(int(pos)), query, best.Dist)
			if d < best.Dist {
				best = Match{Position: int(pos), Dist: d}
			}
		}
	})
	return best
}

// naiveKNN is naive1NN's k-NN counterpart (insertion into a sorted
// slice; fine at test scale).
func naiveKNN(ix *Index, query []float32, k int) []Match {
	w := ix.Schema.Segments
	qpaa := paa.Transform(query, w, nil)
	wordBuf := make([]uint8, w)
	var top []Match
	limit := func() float64 {
		if len(top) < k {
			return math.Inf(1)
		}
		return top[len(top)-1].Dist
	}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistPAAWordNaive(qpaa, n.Word(i, w, wordBuf)) >= limit() {
				continue
			}
			pos := n.Positions[i]
			d := vector.SquaredEuclideanEarlyAbandon(ix.Data.At(int(pos)), query, limit())
			if d >= limit() {
				continue
			}
			j := len(top)
			top = append(top, Match{})
			for j > 0 && (top[j-1].Dist > d) {
				top[j] = top[j-1]
				j--
			}
			top[j] = Match{Position: int(pos), Dist: d}
			if len(top) > k {
				top = top[:k]
			}
		}
	})
	return top
}

// naiveDTW mirrors the DTW cascade with the scalar envelope kernel.
func naiveDTW(ix *Index, query []float32, window int) Match {
	w := ix.Schema.Segments
	u, l := dtw.Envelope(query, window)
	uMax := paa.SegmentMax(u, w, nil)
	lMin := paa.SegmentMin(l, w, nil)
	wordBuf := make([]uint8, w)
	best := Match{Position: -1, Dist: math.Inf(1)}
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		for i := 0; i < n.LeafLen(); i++ {
			if ix.Schema.MinDistEnvelopeWord(uMax, lMin, n.Word(i, w, wordBuf)) >= best.Dist {
				continue
			}
			pos := n.Positions[i]
			candidate := ix.Data.At(int(pos))
			if dtw.LBKeogh(candidate, l, u, best.Dist) >= best.Dist {
				continue
			}
			d := dtw.Distance(query, candidate, window, best.Dist)
			if d < best.Dist {
				best = Match{Position: int(pos), Dist: d}
			}
		}
	})
	return best
}

// TestVectorizedSearchMatchesNaiveKernels is the tentpole's acceptance
// test: the table/SoA read path returns identical 1-NN, k-NN, and DTW
// answers to reference searches running the original scalar kernels.
func TestVectorizedSearchMatchesNaiveKernels(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 30, 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	const k, window = 5, 4
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)

		got, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := naive1NN(ix, q); got != want {
			t.Fatalf("query %d: 1-NN %+v, naive kernels say %+v", qi, got, want)
		}

		gotK, err := knn(ix, q, k, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantK := naiveKNN(ix, q, k)
		if len(gotK) != len(wantK) {
			t.Fatalf("query %d: k-NN returned %d matches, naive %d", qi, len(gotK), len(wantK))
		}
		for i := range gotK {
			if gotK[i] != wantK[i] {
				t.Fatalf("query %d: k-NN[%d] = %+v, naive %+v", qi, i, gotK[i], wantK[i])
			}
		}

		gotD, err := dtwNN(ix, q, window, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveDTW(ix, q, window); gotD != want {
			t.Fatalf("query %d: DTW %+v, naive kernels say %+v", qi, gotD, want)
		}
	}
}

// TestScanLeafBoundsMatchScalarKernel checks, on real tree leaves, that
// the segment-major column accumulation produces bitwise-identical lower
// bounds to the per-entry scalar kernel.
func TestScanLeafBoundsMatchScalarKernel(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 5, 64, 31)
	if err != nil {
		t.Fatal(err)
	}
	w := ix.Schema.Segments
	tab := ix.Schema.NewDistTable()
	var scratch leafScratch
	wordBuf := make([]uint8, w)
	for qi := 0; qi < queries.Count(); qi++ {
		qpaa := paa.Transform(queries.At(qi), w, nil)
		tab.BuildPAA(qpaa)
		ix.Tree.ForEachLeaf(func(leaf *tree.Node) {
			n := leaf.LeafLen()
			if n == 0 {
				return
			}
			lbs := scratch.accumulate(leaf, tab, w)
			for e := 0; e < n; e++ {
				got := lbs[e] * tab.Scale()
				want := ix.Schema.MinDistPAAWord(qpaa, leaf.Word(e, w, wordBuf))
				if got != want {
					t.Fatalf("query %d entry %d: column bound %v, scalar %v", qi, e, got, want)
				}
			}
		})
	}
}

// BenchmarkLeafScan measures the lower-bound stage of the leaf scan over
// a realistically filled tree: the pre-PR shape (entry-major words, one
// scalar kernel call per entry) against the segment-major column loops
// over the per-query distance table. Real-distance work is excluded so
// the numbers isolate the kernel the PR vectorized.
func BenchmarkLeafScan(b *testing.B) {
	data, err := dataset.Generate(dataset.RandomWalk, 40000, 256, 11)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(data, Options{IndexWorkers: 8})
	if err != nil {
		b.Fatal(err)
	}
	w := ix.Schema.Segments
	var leaves []*tree.Node
	var entries int
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		if n.LeafLen() > 0 {
			leaves = append(leaves, n)
			entries += n.LeafLen()
		}
	})
	// Entry-major copies of every leaf's words: the pre-PR layout.
	aos := make([][]uint8, len(leaves))
	for li, leaf := range leaves {
		flat := make([]uint8, leaf.LeafLen()*w)
		for i := 0; i < leaf.LeafLen(); i++ {
			leaf.Word(i, w, flat[i*w:(i+1)*w])
		}
		aos[li] = flat
	}
	qpaa := paa.Transform(data.At(0), w, nil)
	tab := ix.Schema.NewDistTable()
	tab.BuildPAA(qpaa)
	var scratch leafScratch
	var sink float64
	b.Logf("%d leaves, %d entries", len(leaves), entries)

	b.Run("entry-major-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			min := math.Inf(1)
			for li := range leaves {
				flat := aos[li]
				for e := 0; e < len(flat)/w; e++ {
					if lb := ix.Schema.MinDistPAAWord(qpaa, flat[e*w:(e+1)*w]); lb < min {
						min = lb
					}
				}
			}
			sink += min
		}
	})
	b.Run("segment-major-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			min := math.Inf(1)
			for _, leaf := range leaves {
				lbs := scratch.accumulate(leaf, tab, w)
				scale := tab.Scale()
				for _, lb := range lbs {
					if v := lb * scale; v < min {
						min = v
					}
				}
			}
			sink += min
		}
	})
	_ = sink
}

// refinePlain is the candidate loop that refine replaced, kept as its
// reference: no compaction, no gather-ahead — every entry's lower bound is
// checked, in entry order, against a bound cached per 64-entry block and
// refreshed after every improvement. A nil lbs is the approximate search's
// form (every entry measured). It measures without the kernel's methods:
// Euclidean candidates through vector.SquaredEuclideanEarlyAbandon, DTW
// candidates through dtw.Cascade's LB_Keogh test and the DP lanes'
// schedule (dtwLanes) — candidates wait until dtw.Lanes are pending, or
// the leaf ends, and then take Cascade's LB_Keogh test against the bound
// read then; the survivors queue, in order, and the lanes run until one
// finishes below the bound, which is then offered, or, unless the leaf
// has ended, until a lane is free with the queue empty.
func refinePlain(ix *Index, leaf *tree.Node, lbs []float64, scale, escale float64,
	kern kernel, bnd Collector, qos *QoS, t *stats.Tally) {

	limit := bnd.Load()
	lbCount, realCount := int64(len(lbs)), int64(0)
	offer := func(d float64, pos int32) {
		if d < limit {
			if bnd.Update(d, int64(pos)) {
				t.BSFUpdates++
			}
			limit = bnd.Load()
		}
	}
	ed, _ := kern.(*euclidean)
	warp, _ := kern.(*warped)
	var pending []int32
	var lanes dtwLanes
	runLanes := func(drain bool) {
		for {
			ds, ps := lanes.run(ix, warp, limit, drain)
			if len(ds) == 0 {
				return
			}
			for i, d := range ds {
				offer(d, ps[i])
			}
		}
	}
	boundPending := func(drain bool) {
		passLimit := limit
		for _, pos := range pending {
			if _, ran := dtw.Cascade(warp.query, ix.Data.At(int(pos)), warp.lower, warp.upper, warp.window, passLimit); ran {
				lanes.queue = append(lanes.queue, pos)
				realCount++
			}
		}
		pending = pending[:0]
		runLanes(drain)
	}
	for e, pos := range leaf.Positions {
		if e > 0 && e%64 == 0 {
			limit = bnd.Load()
		}
		if lbs != nil {
			if lb := lbs[e] * scale; lb*escale >= limit {
				// Skipped only because of ε-inflation: a witness. One
				// worker, so a plain load and store keep the minimum.
				if escale > 1 && lb < limit && lb < math.Float64frombits(qos.epsPruned.Load()) {
					qos.epsPruned.Store(math.Float64bits(lb))
				}
				continue
			}
		}
		if warp != nil {
			lbCount++
			if pending = append(pending, pos); len(pending) == dtw.Lanes {
				boundPending(false)
			}
			continue
		}
		realCount++
		offer(vector.SquaredEuclideanEarlyAbandon(ix.Data.At(int(pos)), ed.query, limit), pos)
	}
	if warp != nil {
		boundPending(true)
	}
	t.LowerBoundCalcs += lbCount
	t.RealDistCalcs += realCount
}

// dtwSlack is internal/dtw's slack: a DP stops once a bound reaches the
// limit times this.
const dtwSlack = 1 + 1e-9

// dtwFloor is internal/dtw's floor32: the lower bound a float32 DP cell c
// of a series of n points gives of the exact cell, c·κ(n) for 2⁻⁸⁰ ≤ c <
// +Inf, else 0.
func dtwFloor(c float32, n int) float64 {
	if c < 0x1p-80 || math.IsInf(float64(c), 1) {
		return 0
	}
	kappa := 1 - (float64(float64(2*n+4)*0x1p-24) + float64(float64(2*n)*0x1p-70) + 0x1p-50)
	return float64(float64(c) * kappa)
}

// dtwLanes replays the DTW kernel's DP lanes on plain DPs: dtw.DPLanes
// lanes take the queued candidates in order; a call first hands the queue
// to the free lanes, then runs row pairs while every lane is busy (or,
// draining, while any is). The lanes' DPs are float32. After a pair, a
// lane whose last row is done stops, and is returned when dtwFloor of its
// float32 distance is below limit·dtwSlack and its float64 distance is
// below limit; any other lane stops once its row pair's bound, dtwFloor
// of the row minimum plus the LB_Keogh of the columns beyond its band,
// reaches limit·dtwSlack. The stopped lanes take the next queued
// candidates in lane order, and a call returns after a pair that returns
// a lane.
type dtwLanes struct {
	queue  []int32
	pos    [dtw.DPLanes]int32
	m      [dtw.DPLanes]int // row pairs done
	act    uint64
	traces map[int32]dtwTrace
}

type dtwTrace struct {
	bounds []float64
	fin, d float64
}

func (ls *dtwLanes) refill(stop uint64) {
	for l := 0; l < dtw.DPLanes; l++ {
		if stop&(1<<l) == 0 {
			continue
		}
		if len(ls.queue) == 0 {
			ls.act &^= 1 << l
			continue
		}
		ls.pos[l], ls.m[l], ls.queue = ls.queue[0], 0, ls.queue[1:]
		ls.act |= 1 << l
	}
}

func (ls *dtwLanes) run(ix *Index, k *warped, limit float64, drain bool) (ds []float64, ps []int32) {
	const all = 1<<dtw.DPLanes - 1
	ls.refill(all &^ ls.act)
	for ls.act != 0 && (drain || ls.act == all) {
		var stop uint64
		for l := 0; l < dtw.DPLanes; l++ {
			if ls.act&(1<<l) == 0 {
				continue
			}
			tr, ok := ls.traces[ls.pos[l]]
			if !ok {
				if ls.traces == nil {
					ls.traces = map[int32]dtwTrace{}
				}
				tr = pairBounds(k, ix.Data.At(int(ls.pos[l])))
				ls.traces[ls.pos[l]] = tr
			}
			switch {
			case ls.m[l] == len(tr.bounds):
				stop |= 1 << l
				if tr.fin < limit*dtwSlack && tr.d < limit {
					ds, ps = append(ds, tr.d), append(ps, ls.pos[l])
				}
			case tr.bounds[ls.m[l]] >= limit*dtwSlack:
				stop |= 1 << l
			default:
				ls.m[l]++
			}
		}
		ls.refill(stop)
		if len(ds) > 0 {
			return ds, ps
		}
	}
	return nil, nil
}

// pairBounds runs the plain float32 DP of x against k's query, as the
// lanes do: it returns the bound of each row pair but the last (dtwFloor
// of row 2m+1's minimum plus the LB_Keogh of the columns beyond its band)
// and of the float32 distance, and the float64 distance, Cascade's.
func pairBounds(k *warped, x []float32) dtwTrace {
	q, r, n := k.query, k.window, len(k.query)
	inf := float32(math.Inf(1))
	prev, cur := make([]float32, n+1), make([]float32, n+1) // column j at j+1
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	mins := make([]float32, n)
	for i := 0; i < n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		mins[i] = inf
		for j := max(i-r, 0); j <= min(i+r, n-1); j++ {
			d := q[i] - x[j]
			cur[j+1] = float32(min(prev[j+1], prev[j], cur[j]) + float32(d*d))
			mins[i] = min(mins[i], cur[j+1])
		}
		prev, cur = cur, prev
	}
	p := make([]float64, n)
	vector.EnvelopePrefixEarlyAbandon(x, k.lower, k.upper, p, math.Inf(1))
	tr := dtwTrace{bounds: make([]float64, (n-1)/2), fin: dtwFloor(prev[n], n), d: dtw.Distance(q, x, r, math.Inf(1))}
	for m := range tr.bounds {
		tr.bounds[m] = dtwFloor(mins[2*m+1], n) + (p[n-1] - p[min(2*m+1+r, n-1)])
	}
	return tr
}

// syntheticLeaf builds a leaf holding exactly the given series, with their
// real iSAX words in segment-major columns.
func syntheticLeaf(ix *Index, positions []int32) *tree.Node {
	w, n := ix.Schema.Segments, len(positions)
	leaf := &tree.Node{Words: make([]uint8, w*n), Stride: n, Positions: positions}
	for e, pos := range positions {
		word := ix.Schema.WordFromPAA(paa.Transform(ix.Data.At(int(pos)), w, nil), nil)
		for seg, sym := range word {
			leaf.Words[seg*n+e] = sym
		}
	}
	return leaf
}

// TestRefineMatchesPlainLoop drives the same sequence of leaves through
// scanLeaf (filter → gather-ahead → refine) and through the plain reference
// loop, with one worker, and demands identical answers, identical operation
// counters and the same proven ε bound — for every distance flavour and
// bound type, and for leaf sizes on both sides of every batch edge. Its
// plan rows (checkPlans) run whole queries on the tree and on the scan.
func TestRefineMatchesPlainLoop(t *testing.T) {
	const count, length = 2000, 64
	ix := buildTestIndex(t, dataset.RandomWalk, count, length, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 4, length, 77)
	if err != nil {
		t.Fatal(err)
	}
	flavours := []struct {
		name   string
		k      int
		dtw    bool
		eps    float64
		seeded bool
	}{
		{name: "ed-1nn", k: 1},
		{name: "ed-k10", k: 10},
		{name: "dtw", k: 1, dtw: true},
		{name: "eps", k: 1, eps: 0.05},
		{name: "seeded", k: 1, seeded: true},
	}
	window := dtw.WindowSize(length, 0.1)
	w := ix.Schema.Segments
	sawWitness := false
	for _, size := range []int{1, 7, 8, 9, 63, 64, 65, ix.Opts.LeafCapacity} {
		// The same leaves for every flavour: a shuffle of the collection cut
		// into leaves of exactly size entries (at most 40 of them).
		perm := rand.New(rand.NewSource(int64(size))).Perm(count)
		var leaves []*tree.Node
		for lo := 0; lo+size <= count && len(leaves) < 40; lo += size {
			positions := make([]int32, size)
			for i := range positions {
				positions[i] = int32(perm[lo+i])
			}
			leaves = append(leaves, syntheticLeaf(ix, positions))
		}
		for _, fl := range flavours {
			for qi := 0; qi < queries.Count(); qi++ {
				q := queries.At(qi)
				var seeds []Match
				if fl.seeded {
					// A seed outside the collection, tight enough that the
					// filter stage prunes from the first leaf on.
					seeds = []Match{{Position: count + 5, Dist: vector.SquaredEuclidean(ix.Data.At(qi), q)}}
				}
				// The restructured path, through the run's own entry points.
				req := Request{Query: q, K: fl.k, DTW: fl.dtw, Window: window,
					Mode: ModeEpsilon, Epsilon: fl.eps}
				gotQoS := req.NewQoS()
				coll := NewCollector(fl.k)
				for _, s := range seeds {
					coll.Update(s.Dist, int64(s.Position))
				}
				run := newRun(ix, req, SearchOptions{Queues: 1, QoS: gotQoS, Shared: coll})
				var scratch leafScratch
				gotTally := gotQoS.total // the preparation's
				for _, leaf := range leaves {
					run.scanLeaf(leaf, &scratch, &gotTally)
				}
				got := coll.Matches()

				// The reference: the same steps with the plain loop.
				var wantTally stats.Tally
				if run.scan {
					wantTally.ScanPlans++ // the same preparation chose the scan
				}
				wantQoS := req.NewQoS()
				kern := newKernel(req)
				qpaa := paa.Transform(q, w, nil)
				tab := ix.Schema.NewDistTable()
				kern.prepare(tab, qpaa)
				bsf, top := stats.NewBSF(), newTopK(fl.k)
				var bnd Collector = nearest{bsf}
				if fl.k > 1 {
					bnd = top
				}
				for _, s := range seeds {
					bnd.Update(s.Dist, int64(s.Position))
				}
				// The seed: a k-NN run measures the query's leaf whole, a 1-NN
				// run its first refineBatch entries stably sorted by bound, in
				// that order.
				first := ix.approxLeaf(qpaa, ix.Schema.WordFromPAA(qpaa, nil), tab, &wantTally)
				var refScratch leafScratch
				if fl.k > 1 {
					refinePlain(ix, first, nil, 0, 1, kern, bnd, nil, &wantTally)
				} else {
					firstLbs := refScratch.accumulate(first, tab, w)
					order := make([]int, first.LeafLen())
					for e := range order {
						order[e] = e
					}
					sort.SliceStable(order, func(i, j int) bool {
						return firstLbs[order[i]]*tab.Scale() < firstLbs[order[j]]*tab.Scale()
					})
					order = order[:min(len(order), refineBatch)]
					seedPositions, seedLbs := make([]int32, len(order)), make([]float64, len(order))
					for i, e := range order {
						seedPositions[i], seedLbs[i] = first.Positions[e], firstLbs[e]
					}
					refinePlain(ix, syntheticLeaf(ix, seedPositions), seedLbs, tab.Scale(), wantQoS.scale, kern, bnd, wantQoS, &wantTally)
					wantTally.LowerBoundCalcs += int64(first.LeafLen() - len(order)) // the seed bounds the whole leaf
				}
				for _, leaf := range leaves {
					lbs := refScratch.accumulate(leaf, tab, w)
					refinePlain(ix, leaf, lbs, tab.Scale(), wantQoS.scale, kern, bnd, wantQoS, &wantTally)
				}
				want := top.Matches()
				if fl.k == 1 {
					d, pos := bsf.Best()
					want = []Match{{Position: int(pos), Dist: d}}
				}

				name := fmt.Sprintf("leaf size %d, %s, query %d", size, fl.name, qi)
				if len(got) != len(want) {
					t.Fatalf("%s: %d matches, plain loop %d", name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: match %d = %+v, plain loop %+v", name, i, got[i], want[i])
					}
				}
				if gotTally != wantTally {
					t.Fatalf("%s: counters %+v, plain loop %+v", name, gotTally, wantTally)
				}
				gotRes, wantRes := gotQoS.Finish(got), wantQoS.Finish(want)
				if gotRes.Exact != wantRes.Exact || gotRes.EpsilonBound != wantRes.EpsilonBound {
					t.Fatalf("%s: exact=%v bound=%v, plain loop exact=%v bound=%v", name,
						gotRes.Exact, gotRes.EpsilonBound, wantRes.Exact, wantRes.EpsilonBound)
				}
				sawWitness = sawWitness || !gotRes.Exact
			}
		}
	}
	if !sawWitness {
		t.Fatal("no ε case produced a witness: the ε flavour checked nothing")
	}
	t.Run("plans", checkPlans)
}

// TestRefineSinkIsPerWorker runs several 4-worker searches at once: under
// -race a gather-ahead sink shared between workers is a reported data race.
func TestRefineSinkIsPerWorker(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, err := dataset.Generate(dataset.RandomWalk, 8, 64, 91)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for qi := 0; qi < queries.Count(); qi++ {
		wg.Add(1)
		go func(q []float32) {
			defer wg.Done()
			got, err := first(runWith(ix, Request{Query: q}, SearchOptions{Queues: 2}, 4))
			if err != nil {
				t.Error(err)
				return
			}
			if want := naive1NN(ix, q); got != want {
				t.Errorf("4-worker search %+v, naive kernels say %+v", got, want)
			}
		}(queries.At(qi))
	}
	wg.Wait()
}

// unboundedBound never tightens, so every order of BenchmarkRefineOrder
// does the same arithmetic: one full-length distance per series.
type unboundedBound struct{}

func (unboundedBound) Load() float64              { return math.Inf(1) }
func (unboundedBound) Update(float64, int64) bool { return false }
func (unboundedBound) Matches() []Match           { return nil }

// BenchmarkRefineOrder isolates what the refine stage's memory access
// pattern costs: the same kernel over the same series — a collection larger
// than any cache level — in position order (a streaming read, the floor), in
// leaf order through the plain candidate loop (one dependent cache/TLB miss
// chain per series), and in leaf order through refine's gather-ahead batches.
func BenchmarkRefineOrder(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a 256 MB collection")
	}
	const count, length = 500000, 128
	data, err := dataset.Generate(dataset.RandomWalk, count, length, 11)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(data, Options{IndexWorkers: 8})
	if err != nil {
		b.Fatal(err)
	}
	var leaves []*tree.Node
	ix.Tree.ForEachLeaf(func(n *tree.Node) { leaves = append(leaves, n) })
	query, err := dataset.Generate(dataset.RandomWalk, 1, length, 12)
	if err != nil {
		b.Fatal(err)
	}
	kern := &euclidean{query: query.At(0)}
	var tally stats.Tally
	perSeries := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/count, "ns/series")
	}

	b.Run("position-order", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for pos := 0; pos < count; pos++ {
				sink += vector.SquaredEuclideanEarlyAbandon(data.At(pos), kern.query, math.Inf(1))
			}
		}
		perSeries(b)
		_ = sink
	})
	b.Run("leaf-order-plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, leaf := range leaves {
				refinePlain(ix, leaf, nil, 0, 1, kern, unboundedBound{}, nil, &tally)
			}
		}
		perSeries(b)
	})
	b.Run("leaf-order-gather", func(b *testing.B) {
		var scratch leafScratch
		for i := 0; i < b.N; i++ {
			for _, leaf := range leaves {
				ix.refine(leaf, scratch.all(leaf.LeafLen()), nil, kern, &scratch, unboundedBound{}, 0, nil, &tally)
			}
		}
		perSeries(b)
	})
}
