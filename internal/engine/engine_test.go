package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/shard"
)

const (
	testSeries = 4000
	testLength = 128
)

var (
	testOnce sync.Once
	testIx   *shard.Index
	testQs   *series.Collection
)

// testIndex builds one small index — a generation of one shard — and a
// query set, shared by all tests.
func testIndex(t *testing.T) (*shard.Index, *series.Collection) {
	t.Helper()
	testOnce.Do(func() {
		data, err := dataset.Generate(dataset.RandomWalk, testSeries, testLength, 7)
		if err != nil {
			panic(err)
		}
		ix, err := core.Build(data, core.Options{LeafCapacity: 100})
		if err != nil {
			panic(err)
		}
		qs, err := dataset.Queries(dataset.RandomWalk, 16, testLength, 7007)
		if err != nil {
			panic(err)
		}
		testIx, testQs = shard.Wrap(ix), qs
	})
	return testIx, testQs
}

// brute1 and bruteK answer by brute force over the series of an unsharded
// index — the reference the engine must match bitwise; pool1 and poolK go
// through the engine.

func brute1(sx *shard.Index, q []float32) (core.Match, error) {
	return scan.Search1NN(sx.Shard(0).Data, q, 1, nil)
}

func bruteK(sx *shard.Index, q []float32, k int) ([]core.Match, error) {
	return scan.SearchKNN(sx.Shard(0).Data, q, k, 1, nil)
}

// brute answers a checked exact request by brute force over data: what
// the engine must answer for it, bitwise.
func brute(t *testing.T, data *series.Collection, req core.Request) core.Result {
	t.Helper()
	var ms []core.Match
	var err error
	if req.DTW {
		var m core.Match
		m, err = scan.SearchDTW(data, req.Query, req.Window, 1, nil)
		ms = []core.Match{m}
	} else {
		ms, err = scan.SearchKNN(data, req.Query, max(req.K, 1), 1, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return core.Result{Matches: ms, Exact: true}
}

// served is an engine bound to the one view a test searches.
type served struct {
	*Engine
	view View
}

func serve(sx *shard.Index, opts Options) *served {
	return &served{New(sx.Opts(), opts), View{Base: sx}}
}

func (e *served) do(req core.Request) (core.Result, error) { return e.Do(e.view, req) }

func pool1(e *served, q []float32) (core.Match, error) {
	return first(e.do(core.Request{Query: q}))
}

func poolK(e *served, q []float32, k int) ([]core.Match, error) {
	res, err := e.do(core.Request{Query: q, K: k})
	return res.Matches, err
}

func first(res core.Result, err error) (core.Match, error) {
	if err != nil {
		return core.Match{}, err
	}
	return res.Matches[0], nil
}

// TestSearchMatchesCore: the pooled engine must return exactly the answer
// of a brute-force scan of the same series.
func TestSearchMatchesCore(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 8})
	defer e.Close()
	for i := 0; i < qs.Count(); i++ {
		q := qs.At(i)
		want, err := brute1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool1(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: engine %+v, brute force %+v", i, got, want)
		}
	}
}

// TestSearchKNNMatchesCore: k-NN parity between the engine and brute force.
func TestSearchKNNMatchesCore(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 8})
	defer e.Close()
	for _, k := range []int{1, 5, 20} {
		for i := 0; i < 4; i++ {
			q := qs.At(i)
			want, err := bruteK(ix, q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := poolK(e, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d query %d: engine returned %d matches, brute force %d", k, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("k=%d query %d match %d: engine %+v, brute force %+v", k, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConcurrentQueriers hammers one engine from many goroutines (run
// under -race in CI) and checks every answer against brute force.
func TestConcurrentQueriers(t *testing.T) {
	ix, qs := testIndex(t)
	want := make([]core.Match, qs.Count())
	for i := range want {
		m, err := brute1(ix, qs.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	// A deliberately over-subscribed configuration: more concurrent
	// queriers than admission slots, fewer pool workers than queriers.
	e := serve(ix, Options{PoolWorkers: 6, QueryWorkers: 3, MaxConcurrent: 4})
	defer e.Close()

	const queriers = 10
	const rounds = 5
	var wg sync.WaitGroup
	errc := make(chan error, queriers)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % qs.Count()
				got, err := pool1(e, qs.At(i))
				if err != nil {
					errc <- err
					return
				}
				if got != want[i] {
					t.Errorf("querier %d round %d query %d: got %+v, want %+v", g, r, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestBatch: a batch looped over Do answers element-wise, and a bad query
// surfaces an error without corrupting the others.
func TestBatch(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 8, QueryWorkers: 2})
	defer e.Close()

	batch := func(queries [][]float32) ([]core.Match, error) {
		out := make([]core.Match, len(queries))
		err := ForEach(len(queries), e.Options().MaxConcurrent, func(i int) (err error) {
			out[i], err = pool1(e, queries[i])
			return err
		})
		return out, err
	}
	queries := make([][]float32, qs.Count())
	for i := range queries {
		queries[i] = qs.At(i)
	}
	got, err := batch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		want, err := brute1(ix, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("batch query %d: got %+v, want %+v", i, got[i], want)
		}
	}

	bad := [][]float32{qs.At(0), make([]float32, testLength/2)}
	got, err = batch(bad)
	if !errors.Is(err, core.ErrWrongLength) {
		t.Fatalf("batch with a wrong-length query: err = %v, want ErrWrongLength", err)
	}
	if want, _ := brute1(ix, bad[0]); got[0] != want {
		t.Fatalf("good query beside a bad one: got %+v, want %+v", got[0], want)
	}
}

// TestClose: queries after Close fail with ErrClosed; Close is idempotent.
func TestClose(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 4})
	if _, err := pool1(e, qs.At(0)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if _, err := pool1(e, qs.At(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close: err = %v, want ErrClosed", err)
	}
	if _, err := poolK(e, qs.At(0), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchKNN after Close: err = %v, want ErrClosed", err)
	}
}

// TestOptionDefaults: zero options inherit from the index; QueryWorkers
// is clamped to the pool size.
func TestOptionDefaults(t *testing.T) {
	ix, _ := testIndex(t)
	e := serve(ix, Options{})
	defer e.Close()
	o := e.Options()
	if o.PoolWorkers != ix.Opts().SearchWorkers {
		t.Errorf("PoolWorkers = %d, want index default %d", o.PoolWorkers, ix.Opts().SearchWorkers)
	}
	if o.QueryWorkers != o.PoolWorkers {
		t.Errorf("QueryWorkers = %d, want PoolWorkers %d", o.QueryWorkers, o.PoolWorkers)
	}
	if o.Queues != ix.Opts().QueueCount {
		t.Errorf("Queues = %d, want index default %d", o.Queues, ix.Opts().QueueCount)
	}
	if o.MaxConcurrent != 1 {
		t.Errorf("MaxConcurrent = %d, want 1", o.MaxConcurrent)
	}

	e2 := serve(ix, Options{PoolWorkers: 12, QueryWorkers: 99, Queues: 3})
	defer e2.Close()
	o2 := e2.Options()
	if o2.QueryWorkers != 12 {
		t.Errorf("QueryWorkers = %d, want clamp to PoolWorkers 12", o2.QueryWorkers)
	}
	if o2.Queues != 3 {
		t.Errorf("Queues = %d, want 3", o2.Queues)
	}
}

// TestShardedEngineMatchesSingle: a sharded generation answered through
// the pool must return exactly the single-index answers — the fan-out
// (one shared collector, per-shard work units) is invisible in the
// results.
func TestShardedEngineMatchesSingle(t *testing.T) {
	ix, qs := testIndex(t)
	sx, err := shard.Build(testData(t), 4, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	e := serve(sx, Options{PoolWorkers: 8, QueryWorkers: 2})
	defer e.Close()
	for i := 0; i < qs.Count(); i++ {
		q := qs.At(i)
		want, err := brute1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool1(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: sharded engine %+v, brute force %+v", i, got, want)
		}
		wantK, err := bruteK(ix, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := poolK(e, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(wantK) {
			t.Fatalf("query %d: sharded k-NN returned %d, want %d", i, len(gotK), len(wantK))
		}
		for j := range gotK {
			if gotK[j] != wantK[j] {
				t.Fatalf("query %d match %d: sharded %+v, brute force %+v", i, j, gotK[j], wantK[j])
			}
		}
	}
}

// TestGenerationsShareOnePool: one engine serves views of generations with
// different shard counts, in any order — the generation is an argument of
// the query, not state of the engine.
func TestGenerationsShareOnePool(t *testing.T) {
	ix, qs := testIndex(t)
	sx, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix.Opts(), Options{PoolWorkers: 4})
	defer e.Close()
	q := qs.At(0)
	want, err := brute1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, gen := range []*shard.Index{ix, sx, ix} {
		got, err := first(e.Do(View{Base: gen}, core.Request{Query: q}))
		if err != nil || got != want {
			t.Fatalf("view %d (S=%d) answered %+v (%v), want %+v", i, gen.NumShards(), got, err, want)
		}
	}
	if _, err := e.Do(View{}, core.Request{Query: q}); !errors.Is(err, core.ErrEmptyIndex) {
		t.Fatalf("empty view: err = %v, want ErrEmptyIndex", err)
	}
}

// testData exposes the shared test collection for sharded builds.
func testData(t *testing.T) *series.Collection {
	t.Helper()
	data, err := dataset.Generate(dataset.RandomWalk, testSeries, testLength, 7)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
