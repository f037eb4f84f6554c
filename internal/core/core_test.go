package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/series"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/vector"
)

// smallOpts keeps trees interesting (many splits) at test scale.
func smallOpts() Options {
	return Options{
		LeafCapacity:  32,
		ChunkSize:     64,
		IndexWorkers:  4,
		SearchWorkers: 8,
		QueueCount:    4,
	}
}

func buildTestIndex(t testing.TB, kind dataset.Kind, count, length int, opts Options) *Index {
	t.Helper()
	data, err := dataset.Generate(kind, count, length, 11)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// bruteForce1NN is the gold standard against which every algorithm is
// checked.
func bruteForce1NN(data *series.Collection, query []float32) Match {
	best := Match{Position: -1, Dist: math.Inf(1)}
	for i := 0; i < data.Count(); i++ {
		d := vector.SquaredEuclidean(data.At(i), query)
		if d < best.Dist {
			best = Match{Position: i, Dist: d}
		}
	}
	return best
}

func bruteForceKNN(data *series.Collection, query []float32, k int) []Match {
	all := make([]Match, data.Count())
	for i := 0; i < data.Count(); i++ {
		all[i] = Match{Position: i, Dist: vector.SquaredEuclidean(data.At(i), query)}
	}
	// selection sort of the first k (fine at test scale)
	for i := 0; i < k && i < len(all); i++ {
		min := i
		for j := i + 1; j < len(all); j++ {
			if all[j].Dist < all[min].Dist ||
				(all[j].Dist == all[min].Dist && all[j].Position < all[min].Position) {
				min = j
			}
		}
		all[i], all[min] = all[min], all[i]
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func bruteForceDTW(data *series.Collection, query []float32, window int) Match {
	best := Match{Position: -1, Dist: math.Inf(1)}
	for i := 0; i < data.Count(); i++ {
		d := dtw.Distance(query, data.At(i), window, best.Dist)
		if d < best.Dist {
			best = Match{Position: i, Dist: d}
		}
	}
	return best
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil collection accepted")
	}
	empty, _ := series.NewEmptyCollection(0, 64)
	if _, err := Build(empty, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	// Length not a multiple of segments.
	bad, _ := series.NewEmptyCollection(4, 100)
	if _, err := Build(bad, Options{Segments: 16}); err == nil {
		t.Error("non-multiple length accepted")
	}
}

func TestBuildConservesSeries(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	st := ix.Stats()
	if st.Series != 3000 {
		t.Fatalf("tree holds %d series, want 3000", st.Series)
	}
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(ix.activeRoots) != st.RootChildren {
		t.Errorf("activeRoots %d != root children %d", len(ix.activeRoots), st.RootChildren)
	}
}

func TestBuildDeterministicTreeShape(t *testing.T) {
	// Shape statistics agree between a parallel and a serial build;
	// TestBuildIsPositionOrder checks the trees node for node.
	a := buildTestIndex(t, dataset.RandomWalk, 2000, 64, smallOpts())
	opts := smallOpts()
	opts.IndexWorkers = 1
	b := buildTestIndex(t, dataset.RandomWalk, 2000, 64, opts)
	sa, sb := a.Stats(), b.Stats()
	if sa.Series != sb.Series || sa.RootChildren != sb.RootChildren {
		t.Errorf("parallel %+v vs serial %+v", sa, sb)
	}
}

// TestBuildIsPositionOrder pins the build's determinism: whatever the
// worker count and schedule, the tree is the one a sequential insert of
// every series in position order builds under a root keyed on the index's
// k segments.
func TestBuildIsPositionOrder(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 20000, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{LeafCapacity: 32, ChunkSize: 64}.withDefaults()
	schema, err := isax.NewSchema(data.Length, opts.Segments, opts.CardBits)
	if err != nil {
		t.Fatal(err)
	}
	k := rootBits(data.Count(), opts.LeafCapacity, schema.Segments)
	if k != 10 {
		t.Fatalf("20 000 series at leaf capacity 32 key the root on %d segments, want 10", k)
	}
	ref, err := tree.NewRooted(schema, opts.LeafCapacity, k)
	if err != nil {
		t.Fatal(err)
	}
	paaBuf := make([]float64, schema.Segments)
	for j := 0; j < data.Count(); j++ {
		paa.Transform(data.At(j), schema.Segments, paaBuf)
		word := schema.WordFromPAA(paaBuf, nil)
		ref.Insert(ref.EnsureRoot(ref.RootKey(word)), word, int32(j))
	}
	want, err := ref.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 24} {
		opts.IndexWorkers = workers
		ix, err := Build(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ix.Tree.AppendBinary(nil); err != nil || !bytes.Equal(got, want) {
			t.Errorf("IndexWorkers=%d: tree differs from the position-order insert", workers)
		}
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Errorf("IndexWorkers=%d: %v", workers, err)
		}
	}
}

func TestBuildTimedReportsPhases(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 2000, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	var bt BuildTiming
	if _, err := BuildTimed(data, smallOpts(), &bt); err != nil {
		t.Fatal(err)
	}
	if bt.Summarize <= 0 || bt.TreeBuild <= 0 {
		t.Errorf("phases not recorded: %+v", bt)
	}
	if bt.Total() != bt.Summarize+bt.TreeBuild {
		t.Errorf("Total inconsistent: %+v", bt)
	}
}

func TestBuildSingleSeries(t *testing.T) {
	data, _ := dataset.Generate(dataset.RandomWalk, 1, 64, 5)
	ix, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn1(ix, data.At(0), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 0 || m.Dist != 0 {
		t.Errorf("self-search = %+v", m)
	}
}

func TestSearchValidation(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 100, 64, smallOpts())
	if _, err := nn1(ix, make([]float32, 32), SearchOptions{}); err == nil {
		t.Error("wrong-length query accepted")
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, err := dataset.Queries(dataset.RandomWalk, 30, 64, 77)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForce1NN(ix.Data, q)
		got, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: dist %v, want %v (pos %d vs %d)",
				qi, got.Dist, want.Dist, got.Position, want.Position)
		}
	}
}

func TestSearchSingleQueueMatchesBruteForce(t *testing.T) {
	ix := buildTestIndex(t, dataset.SeismicLike, 3000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.SeismicLike, 20, 64, 78)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForce1NN(ix.Data, q)
		got, err := nn1(ix, q, SearchOptions{Queues: 1}) // MESSI-sq
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: sq dist %v, want %v", qi, got.Dist, want.Dist)
		}
	}
}

func TestSearchAcrossWorkerAndQueueCounts(t *testing.T) {
	ix := buildTestIndex(t, dataset.SALDLike, 2000, 128, smallOpts())
	queries, _ := dataset.Queries(dataset.SALDLike, 5, 128, 79)
	for _, workers := range []int{1, 2, 7, 16} {
		for _, queues := range []int{1, 2, 5, 16} {
			for qi := 0; qi < queries.Count(); qi++ {
				q := queries.At(qi)
				want := bruteForce1NN(ix.Data, q)
				got, err := first(runWith(ix, Request{Query: q}, SearchOptions{Queues: queues}, workers))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
					t.Fatalf("workers=%d queues=%d query %d: %v want %v",
						workers, queues, qi, got.Dist, want.Dist)
				}
			}
		}
	}
}

func TestSearchSelfQueriesFindThemselves(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 1000, 64, smallOpts())
	for i := 0; i < 50; i++ {
		m, err := nn1(ix, ix.Data.At(i*7%1000), SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("self query %d: dist %v, want 0", i, m.Dist)
		}
	}
}

func TestSearchCounters(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 5, 64, 80)
	for qi := 0; qi < queries.Count(); qi++ {
		res, err := resultWith(ix, Request{Query: queries.At(qi)}, SearchOptions{}, ix.Opts.SearchWorkers)
		if err != nil {
			t.Fatal(err)
		}
		got, snap := res.Matches[0], res.Tally
		if snap.LowerBoundCalcs == 0 {
			t.Error("no lower-bound calcs recorded")
		}
		if snap.RealDistCalcs == 0 {
			t.Error("no real-distance calcs recorded")
		}
		// Pruning must actually prune: far fewer real distances than the
		// collection size.
		if snap.RealDistCalcs > int64(ix.Data.Count())/2 {
			t.Errorf("pruning ineffective: %d real calcs for %d series",
				snap.RealDistCalcs, ix.Data.Count())
		}
		if got.Position < 0 {
			t.Error("no result position")
		}
	}
}

func TestSearchBreakdownSumsToSomething(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 3, 64, 81)
	var sum stats.Tally
	for qi := 0; qi < queries.Count(); qi++ {
		tally, err := tallyOf(ix, Request{Query: queries.At(qi), Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(tally)
	}
	if sum.Phases[stats.PhaseInit] <= 0 {
		t.Error("initialization phase empty")
	}
	if sum.Phases[stats.PhaseTreePass] <= 0 {
		t.Error("tree pass phase empty")
	}
	if untraced, err := tallyOf(ix, Request{Query: queries.At(0)}); err != nil || untraced.Phases != [stats.NumPhases]time.Duration{} {
		t.Errorf("untraced query timed its phases: %v (err %v)", untraced.Phases, err)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 2500, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 10, 64, 82)
	for _, k := range []int{1, 3, 10, 25} {
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			want := bruteForceKNN(ix.Data, q, k)
			got, err := knn(ix, q, k, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d query %d: %d results, want %d", k, qi, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
					t.Fatalf("k=%d query %d rank %d: dist %v, want %v",
						k, qi, i, got[i].Dist, want[i].Dist)
				}
			}
			// Results must be sorted and distinct.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatalf("k=%d results unsorted", k)
				}
				if got[i].Position == got[i-1].Position {
					t.Fatalf("k=%d duplicate position %d", k, got[i].Position)
				}
			}
		}
	}
}

func TestKNNValidation(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 100, 64, smallOpts())
	if ms, err := knn(ix, ix.Data.At(0), 0, SearchOptions{}); err != nil || len(ms) != 1 {
		t.Errorf("k=0 must mean 1-NN (Request.K), got %d matches, err %v", len(ms), err)
	}
	if _, err := knn(ix, ix.Data.At(0), -3, SearchOptions{}); !errors.Is(err, ErrBadK) {
		t.Errorf("negative k: err = %v, want ErrBadK", err)
	}
	if _, err := runRequest(ix, Request{Query: ix.Data.At(0), K: 3, DTW: true, Window: 6}, SearchOptions{}); !errors.Is(err, ErrBadK) {
		t.Errorf("k-NN under DTW: err = %v, want ErrBadK", err)
	}
	// k larger than the collection returns the whole collection.
	got, err := knn(ix, ix.Data.At(0), 1000, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("clamped k returned %d results, want 100", len(got))
	}
}

func TestSearchDTWMatchesBruteForce(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 1500, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 8, 64, 83)
	window := dtw.WindowSize(64, 0.1)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForceDTW(ix.Data, q, window)
		got, err := dtwNN(ix, q, window, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: DTW dist %v, want %v (pos %d vs %d)",
				qi, got.Dist, want.Dist, got.Position, want.Position)
		}
	}
}

func TestSearchDTWZeroWindowEqualsED(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 800, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 5, 64, 84)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		ed, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dt, err := dtwNN(ix, q, 0, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ed.Dist-dt.Dist) > 1e-6*(1+ed.Dist) {
			t.Fatalf("query %d: DTW(r=0) %v != ED %v", qi, dt.Dist, ed.Dist)
		}
	}
}

// TestDTWWordBoundBelowLBKeogh holds the DTW kernel's word bound, the
// table prepare builds from the envelope's PAA, below LB_Keogh, and
// LB_Keogh below the DTW, for every series of the three generator
// families against their queries, at windows from 0 to a third of the
// series. Each sums its terms in its own order, so each may round a few
// ulps above the next (at window 0 all three are the same sum); the
// kernel's abandon tests allow dtwSlack for that, and so does this one.
func TestDTWWordBoundBelowLBKeogh(t *testing.T) {
	const n = 128
	for _, kind := range []dataset.Kind{dataset.RandomWalk, dataset.SeismicLike, dataset.SALDLike} {
		ix := buildTestIndex(t, kind, 300, n, smallOpts())
		queries, err := dataset.Queries(kind, 4, n, 23)
		if err != nil {
			t.Fatal(err)
		}
		w := ix.Schema.Segments
		tab := ix.Schema.NewDistTable()
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			for _, window := range []int{0, 6, 13, 40} {
				k := newKernel(Request{Query: q, DTW: true, Window: window}).(*warped)
				k.prepare(tab, nil)
				for pos := 0; pos < ix.Data.Count(); pos++ {
					x := ix.Data.At(pos)
					word := ix.Schema.WordFromPAA(paa.Transform(x, w, nil), nil)
					bound := tab.MinDistWord(word)
					lb := dtw.LBKeogh(x, k.lower, k.upper, math.Inf(1))
					d := dtw.Distance(q, x, window, math.Inf(1))
					if bound > lb*dtwSlack || lb > d*dtwSlack {
						t.Fatalf("%s query %d window %d series %d: word bound %v, LB_Keogh %v, DTW %v", kind, qi, window, pos, bound, lb, d)
					}
				}
			}
		}
	}
}

// TestDTWSeedFindsMemberAtWindowZero: at window 0 the envelope is the
// query, so the DTW table is the Euclidean one, and the seed of an exact
// DTW run of a member query (z-normalized again, so ~0 away) measures its
// own series among its leaf's best-bound entries. The index is
// checkPlans' shape at 128 points (4 segments), where the envelope's
// extremes in place of its means tied many entries of the leaf at 0.
func TestDTWSeedFindsMemberAtWindowZero(t *testing.T) {
	opts := smallOpts()
	opts.Segments, opts.LeafCapacity = 4, 64
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 128, opts)
	for qi, q := range memberTier.queries(ix.Data, 20, 41) {
		if seed := newRun(ix, Request{Query: q, DTW: true}, SearchOptions{}).bnd.Load(); seed > 1e-9 {
			t.Fatalf("member query %d: DTW seed at %v, want ~0", qi, seed)
		}
	}
}

func TestSearchDTWValidation(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 100, 64, smallOpts())
	if _, err := dtwNN(ix, ix.Data.At(0), -1, SearchOptions{}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := dtwNN(ix, ix.Data.At(0), 64, SearchOptions{}); err == nil {
		t.Error("window >= length accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Segments != 16 || o.CardBits != 8 || o.LeafCapacity != 2000 ||
		o.ChunkSize != 20000 ||
		o.IndexWorkers != 24 || o.SearchWorkers != 48 || o.QueueCount != 24 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o = Options{Segments: 8, QueueCount: 3}.withDefaults()
	if o.Segments != 8 || o.QueueCount != 3 {
		t.Error("explicit values overridden")
	}
	o = Options{IndexWorkers: -5}.withDefaults()
	if o.IndexWorkers != 24 {
		t.Error("negative value not clamped to default")
	}
}

func TestApproxSearchUpperBoundsExact(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 20, 64, 122)
	exactAtLeastOnce := false
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		approx, err := approxNN(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if approx.Dist < exact.Dist-1e-9 {
			t.Fatalf("query %d: approximate %v below exact %v (impossible)", qi, approx.Dist, exact.Dist)
		}
		if math.Abs(approx.Dist-exact.Dist) < 1e-9 {
			exactAtLeastOnce = true
		}
	}
	// The paper reports the initial BSF is usually very close to final;
	// on random walks the approximate answer is frequently exact.
	if !exactAtLeastOnce {
		t.Error("approximate search never matched the exact answer across 20 queries (suspicious)")
	}
}

func TestApproxSearchSelfQueryIsExact(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 1000, 64, smallOpts())
	for i := 0; i < 10; i++ {
		m, err := approxNN(ix, ix.Data.At(i*101%1000), SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("self approx query %d: dist %v", i, m.Dist)
		}
	}
}

func TestApproxSearchValidation(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 100, 64, smallOpts())
	if _, err := approxNN(ix, make([]float32, 16), SearchOptions{}); err == nil {
		t.Error("wrong-length query accepted")
	}
}
