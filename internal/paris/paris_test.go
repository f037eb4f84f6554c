package paris

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/vector"
)

func smallOpts() Options {
	return Options{
		LeafCapacity:  32,
		IndexWorkers:  4,
		SearchWorkers: 8,
	}
}

func buildParis(t testing.TB, kind dataset.Kind, count, length int) *Index {
	t.Helper()
	data, err := dataset.Generate(kind, count, length, 11)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func brute1NN(data *series.Collection, query []float32) core.Match {
	best := core.Match{Position: -1, Dist: math.Inf(1)}
	for i := 0; i < data.Count(); i++ {
		d := vector.SquaredEuclidean(data.At(i), query)
		if d < best.Dist {
			best = core.Match{Position: i, Dist: d}
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
	bad, _ := series.NewEmptyCollection(4, 100)
	if _, err := Build(bad, Options{Segments: 16}); err == nil {
		t.Error("non-multiple length accepted")
	}
}

func TestBuildConservesSeriesAndFillsSAX(t *testing.T) {
	ix := buildParis(t, dataset.RandomWalk, 3000, 64)
	st := ix.Tree.Stats()
	if st.Series != 3000 {
		t.Fatalf("tree holds %d series, want 3000", st.Series)
	}
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(ix.SAX) != 3000*16 {
		t.Fatalf("SAX array length %d", len(ix.SAX))
	}
	// Spot-check: the SAX word of series i routes to the root subtree
	// that contains it.
	for i := 0; i < 3000; i += 311 {
		l := ix.Schema.RootIndex(ix.Word(i))
		if ix.Tree.Root(l) == nil {
			t.Errorf("series %d's subtree %d is empty", i, l)
		}
	}
}

// bruteForceLengths are the series lengths of the brute-force equivalence
// tests: 64 gives power-of-two PAA segments (4 points at w = 16), 96 gives
// 6-point segments, where a mean computed as sum/6 and one computed as
// sum*(1/6) differ in the last ulp — the query must be summarised exactly
// as the indexed words were.
var bruteForceLengths = []int{64, 96}

func TestSIMSMatchesBruteForce(t *testing.T) {
	for _, length := range bruteForceLengths {
		ix := buildParis(t, dataset.RandomWalk, 3000, length)
		queries, _ := dataset.Queries(dataset.RandomWalk, 20, length, 55)
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			want := brute1NN(ix.Data, q)
			got, err := ix.Search(q, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
				t.Fatalf("length %d query %d: %v want %v", length, qi, got.Dist, want.Dist)
			}
		}
	}
}

func TestSIMSSISDMatchesBruteForce(t *testing.T) {
	ix := buildParis(t, dataset.SeismicLike, 1500, 64)
	queries, _ := dataset.Queries(dataset.SeismicLike, 10, 64, 56)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := brute1NN(ix.Data, q)
		got, err := ix.Search(q, SearchOptions{Kernel: KernelSISD})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: %v want %v", qi, got.Dist, want.Dist)
		}
	}
}

func TestSIMSComputesLowerBoundForEverySeries(t *testing.T) {
	ix := buildParis(t, dataset.RandomWalk, 2000, 64)
	ctrs := &stats.Counters{}
	if _, err := ix.Search(ix.Data.At(3), SearchOptions{Counters: ctrs}); err != nil {
		t.Fatal(err)
	}
	// The defining SIMS behaviour (Figure 17a): a lower-bound computation
	// for every series in the collection.
	if got := ctrs.Snapshot().LowerBoundCalcs; got < 2000 {
		t.Errorf("SIMS lower-bound calcs = %d, want >= 2000", got)
	}
}

func TestTSMatchesBruteForce(t *testing.T) {
	for _, length := range bruteForceLengths {
		ix := buildParis(t, dataset.RandomWalk, 3000, length)
		queries, _ := dataset.Queries(dataset.RandomWalk, 20, length, 57)
		for _, workers := range []int{1, 4, 8} {
			for qi := 0; qi < queries.Count(); qi++ {
				q := queries.At(qi)
				want := brute1NN(ix.Data, q)
				got, err := ix.SearchTS(q, SearchOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
					t.Fatalf("length %d workers=%d query %d: %v want %v", length, workers, qi, got.Dist, want.Dist)
				}
			}
		}
	}
}

func TestTSDoesFewerLowerBoundsThanSIMS(t *testing.T) {
	ix := buildParis(t, dataset.RandomWalk, 4000, 64)
	q, _ := dataset.Queries(dataset.RandomWalk, 1, 64, 58)
	query := q.At(0)
	simsCtrs := &stats.Counters{}
	if _, err := ix.Search(query, SearchOptions{Counters: simsCtrs}); err != nil {
		t.Fatal(err)
	}
	tsCtrs := &stats.Counters{}
	if _, err := ix.SearchTS(query, SearchOptions{Counters: tsCtrs}); err != nil {
		t.Fatal(err)
	}
	// ParIS-TS prunes during lower-bound computation; SIMS cannot
	// (it sweeps the whole SAX array).
	if tsCtrs.Snapshot().LowerBoundCalcs >= simsCtrs.Snapshot().LowerBoundCalcs {
		t.Errorf("TS lower bounds (%d) should be below SIMS (%d)",
			tsCtrs.Snapshot().LowerBoundCalcs, simsCtrs.Snapshot().LowerBoundCalcs)
	}
}

func TestSearchValidation(t *testing.T) {
	ix := buildParis(t, dataset.RandomWalk, 100, 64)
	if _, err := ix.Search(make([]float32, 32), SearchOptions{}); err == nil {
		t.Error("SIMS: wrong-length query accepted")
	}
	if _, err := ix.SearchTS(make([]float32, 32), SearchOptions{}); err == nil {
		t.Error("TS: wrong-length query accepted")
	}
}

func TestSelfQueries(t *testing.T) {
	ix := buildParis(t, dataset.SALDLike, 800, 128)
	for i := 0; i < 20; i++ {
		q := ix.Data.At(i * 37 % 800)
		m, err := ix.Search(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("SIMS self query %d: dist %v", i, m.Dist)
		}
		m, err = ix.SearchTS(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("TS self query %d: dist %v", i, m.Dist)
		}
	}
}

// TestFig17ShapeHolds pins the paper's Figure 17 claim on the three
// dataset families: MESSI performs fewer lower-bound calculations than
// ParIS (whose SIMS sweep computes one per series) and no more
// real-distance calculations. The advantage needs realistically
// proportioned leaves, hence 20 000 series (on a tree of many tiny leaves
// the per-node bounds outnumber ParIS's one-per-series sweep).
func TestFig17ShapeHolds(t *testing.T) {
	const count, leafCap = 20000, 100
	for _, kind := range []dataset.Kind{dataset.RandomWalk, dataset.SeismicLike, dataset.SALDLike} {
		length := 64
		if kind == dataset.SALDLike {
			length = 128
		}
		data, err := dataset.Generate(kind, count, length, 1)
		if err != nil {
			t.Fatal(err)
		}
		queries, err := dataset.Queries(kind, 2, length, 1001)
		if err != nil {
			t.Fatal(err)
		}
		parisIx, err := Build(data, Options{LeafCapacity: leafCap})
		if err != nil {
			t.Fatal(err)
		}
		messiIx, err := core.Build(data, core.Options{LeafCapacity: leafCap})
		if err != nil {
			t.Fatal(err)
		}
		parisCtrs, messiCtrs := &stats.Counters{}, &stats.Counters{}
		messi := engine.NewUnpooled(messiIx.Opts, engine.Options{})
		for qi := 0; qi < queries.Count(); qi++ {
			if _, err := parisIx.Search(queries.At(qi), SearchOptions{Counters: parisCtrs}); err != nil {
				t.Fatal(err)
			}
			req := core.Request{Query: queries.At(qi), Counters: messiCtrs}
			if _, err := messi.Do(engine.View{Base: shard.Wrap(messiIx)}, req); err != nil {
				t.Fatal(err)
			}
		}
		p, m := parisCtrs.Snapshot(), messiCtrs.Snapshot()
		if m.LowerBoundCalcs >= p.LowerBoundCalcs {
			t.Errorf("%s: MESSI lower bounds (%d) not below ParIS (%d)", kind, m.LowerBoundCalcs, p.LowerBoundCalcs)
		}
		if m.RealDistCalcs > p.RealDistCalcs {
			t.Errorf("%s: MESSI real calcs (%d) above ParIS (%d)", kind, m.RealDistCalcs, p.RealDistCalcs)
		}
	}
}

func TestLockedBuffers(t *testing.T) {
	b := newLockedBuffers(3)
	if len(b.bufs) != 3 {
		t.Errorf("fanout = %d", len(b.bufs))
	}
	b.add(0, 5)
	b.add(0, 6)
	b.add(2, 7)
	if got := b.bufs[0].positions; len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("positions(0) = %v", got)
	}
	if got := b.bufs[1].positions; len(got) != 0 {
		t.Errorf("positions(1) = %v, want empty", got)
	}
	if got := len(b.bufs[2].positions); got != 1 {
		t.Errorf("len(positions(2)) = %d, want 1", got)
	}
}

// All workers hammering the same locked buffer must serialize correctly.
func TestLockedBuffersConcurrent(t *testing.T) {
	const workers = 8
	const per = 2000
	b := newLockedBuffers(4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.add(i%4, int32(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int32]bool, workers*per)
	for l := range b.bufs {
		for _, pos := range b.bufs[l].positions {
			if seen[pos] {
				t.Fatalf("position %d appears twice", pos)
			}
			seen[pos] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("lost entries: %d distinct, want %d", len(seen), workers*per)
	}
}
