package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// An index must support many concurrent queries: queries share nothing but
// the immutable index, so results must be identical to sequential runs.
func TestConcurrentQueriesOnSharedIndex(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 3000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 12, 64, 200)

	want := make([]float64, queries.Count())
	for qi := range want {
		m, err := nn1(ix, queries.At(qi), SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = m.Dist
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*queries.Count())
	for r := 0; r < rounds; r++ {
		for qi := 0; qi < queries.Count(); qi++ {
			wg.Add(1)
			go func(qi int) {
				defer wg.Done()
				m, err := first(runWith(ix, Request{Query: queries.At(qi)}, SearchOptions{}, 4))
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(m.Dist-want[qi]) > 1e-9*(1+want[qi]) {
					t.Errorf("concurrent query %d: %v want %v", qi, m.Dist, want[qi])
				}
			}(qi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Mixed concurrent workload: 1-NN, k-NN and DTW queries interleaved.
func TestConcurrentMixedQueryKinds(t *testing.T) {
	ix := buildTestIndex(t, dataset.SeismicLike, 1500, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.SeismicLike, 6, 64, 201)
	var wg sync.WaitGroup
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		wg.Add(3)
		go func() {
			defer wg.Done()
			if _, err := nn1(ix, q, SearchOptions{}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := knn(ix, q, 3, SearchOptions{}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := dtwNN(ix, q, 6, SearchOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// Duplicated series: every copy is a valid 1-NN at distance zero, k-NN
// must return distinct positions.
func TestDuplicateSeries(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 100, 64, 202)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate series 0 over positions 1..9.
	for i := 1; i < 10; i++ {
		copy(data.At(i), data.At(0))
	}
	ix, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn1(ix, data.At(0), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist != 0 || m.Position < 0 || m.Position > 9 {
		t.Fatalf("duplicate search: %+v", m)
	}
	ms, err := knn(ix, data.At(0), 10, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 {
		t.Fatalf("got %d matches", len(ms))
	}
	seen := map[int]bool{}
	for _, mm := range ms {
		if mm.Dist != 0 {
			t.Fatalf("duplicate at distance %v", mm.Dist)
		}
		if seen[mm.Position] {
			t.Fatalf("position %d returned twice", mm.Position)
		}
		seen[mm.Position] = true
	}
}

// Constant (all-zero after z-norm) series must be indexable and findable.
func TestConstantSeries(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 50, 64, 203)
	if err != nil {
		t.Fatal(err)
	}
	zero := data.At(7)
	for i := range zero {
		zero[i] = 0
	}
	ix, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, 64)
	m, err := nn1(ix, q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 7 || m.Dist != 0 {
		t.Fatalf("constant query: %+v", m)
	}
}

// Workers far exceeding data and queues must still terminate and be exact.
func TestManyMoreWorkersThanWork(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 64, 64, Options{
		LeafCapacity: 4, ChunkSize: 2, IndexWorkers: 32, SearchWorkers: 64, QueueCount: 48,
	})
	queries, _ := dataset.Queries(dataset.RandomWalk, 5, 64, 204)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForce1NN(ix.Data, q)
		got, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: %v want %v", qi, got.Dist, want.Dist)
		}
	}
}

// The BSF-update counter should stay small (the paper reports 10-12
// updates per query on average) — a sanity check that the approximate
// answer seeds well and the queues process in bound order.
func TestBSFUpdateCountIsSmall(t *testing.T) {
	ix := buildTestIndex(t, dataset.RandomWalk, 4000, 64, smallOpts())
	queries, _ := dataset.Queries(dataset.RandomWalk, 10, 64, 205)
	ctrs := &stats.Counters{}
	for qi := 0; qi < queries.Count(); qi++ {
		if _, err := first(runRequest(ix, Request{Query: queries.At(qi), Counters: ctrs}, SearchOptions{})); err != nil {
			t.Fatal(err)
		}
	}
	perQuery := float64(ctrs.Snapshot().BSFUpdates) / float64(queries.Count())
	if perQuery > 40 {
		t.Errorf("BSF updated %.1f times per query; expected a small number (paper: 10-12)", perQuery)
	}
}

// Chunk size larger than the collection: a single chunk must still be
// processed fully.
func TestChunkLargerThanCollection(t *testing.T) {
	opts := smallOpts()
	opts.ChunkSize = 1 << 20
	ix := buildTestIndex(t, dataset.RandomWalk, 500, 64, opts)
	if got := ix.Stats().Series; got != 500 {
		t.Fatalf("indexed %d series, want 500", got)
	}
}

// Leaf capacity 1 forces maximal splitting; the index must stay correct.
func TestLeafCapacityOne(t *testing.T) {
	opts := smallOpts()
	opts.LeafCapacity = 1
	ix := buildTestIndex(t, dataset.RandomWalk, 300, 64, opts)
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queries, _ := dataset.Queries(dataset.RandomWalk, 5, 64, 206)
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := bruteForce1NN(ix.Data, q)
		got, err := nn1(ix, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
			t.Fatalf("query %d: %v want %v", qi, got.Dist, want.Dist)
		}
	}
}
