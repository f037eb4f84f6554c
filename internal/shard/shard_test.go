package shard_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/engine"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/vector"
)

// The package holds no query code: these tests search a shard group the
// way every frontend does, as the base of an engine view.

const (
	testSeries = 3000
	testLength = 64
	testLeaf   = 64
)

func testData(t testing.TB, n int) *series.Collection {
	t.Helper()
	col, err := dataset.Generate(dataset.RandomWalk, n, testLength, 7)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func testQueries(t testing.TB, n int) *series.Collection {
	t.Helper()
	col, err := dataset.Queries(dataset.RandomWalk, n, testLength, 1007)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func testOpts() core.Options {
	return core.Options{LeafCapacity: testLeaf, SearchWorkers: 8, IndexWorkers: 8}
}

// Helpers over the engine's Do, one per request flavour.

func do(x *shard.Index, req core.Request) (core.Result, error) {
	return engine.NewUngated(x.Opts(), engine.Options{}).Do(engine.View{Base: x}, req)
}

func matches(t testing.TB, x *shard.Index, req core.Request) []core.Match {
	t.Helper()
	res, err := do(x, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact && req.Mode == core.ModeExact {
		t.Fatalf("exact request answered inexactly: %+v", res)
	}
	return res.Matches
}

func nn1(t testing.TB, x *shard.Index, q []float32) core.Match {
	t.Helper()
	return matches(t, x, core.Request{Query: q})[0]
}

func knn(t testing.TB, x *shard.Index, q []float32, k int) []core.Match {
	t.Helper()
	return matches(t, x, core.Request{Query: q, K: k})
}

func dtwNN(t testing.TB, x *shard.Index, q []float32, window int) core.Match {
	t.Helper()
	return matches(t, x, core.Request{Query: q, DTW: true, Window: window})[0]
}

// TestEquivalence pins the tentpole contract: for S ∈ {2,4,8}, the sharded
// index answers 1-NN, k-NN and DTW queries bitwise-identically to a single
// index over the same collection.
func TestEquivalence(t *testing.T) {
	data := testData(t, testSeries)
	queries := testQueries(t, 10)
	single, err := shard.Build(data, 1, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	window := dtw.WindowSize(testLength, 0.1)

	for _, S := range []int{2, 4, 8} {
		sharded, err := shard.Build(data, S, testOpts())
		if err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		if sharded.Len() != single.Len() || sharded.NumShards() != S {
			t.Fatalf("S=%d: len %d shards %d", S, sharded.Len(), sharded.NumShards())
		}
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)

			want := nn1(t, single, q)
			got := nn1(t, sharded, q)
			if got != want {
				t.Fatalf("S=%d query %d: 1-NN %+v, single-shard %+v", S, qi, got, want)
			}

			wantK := knn(t, single, q, 10)
			gotK := knn(t, sharded, q, 10)
			if len(gotK) != len(wantK) {
				t.Fatalf("S=%d query %d: k-NN returned %d matches, want %d", S, qi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i] != wantK[i] {
					t.Fatalf("S=%d query %d: k-NN match %d is %+v, single-shard %+v", S, qi, i, gotK[i], wantK[i])
				}
			}

			wantD := dtwNN(t, single, q, window)
			gotD := dtwNN(t, sharded, q, window)
			if gotD != wantD {
				t.Fatalf("S=%d query %d: DTW %+v, single-shard %+v", S, qi, gotD, wantD)
			}
		}
	}
}

// TestSharedTopKMatchesBruteForce: every shard count — one included — fans
// into ONE collector holding global positions, so k-NN answers (and 1-NN,
// as k=1) equal a brute-force scan of the collection: sorted by distance,
// ties by ascending position. (The rows where series outside the shards
// join the fan-out are internal/engine's TestViewMatchesBruteForce.)
func TestSharedTopKMatchesBruteForce(t *testing.T) {
	data := testData(t, testSeries)
	queries := testQueries(t, 4)
	indexes := map[int]*shard.Index{}
	for _, S := range []int{1, 2, 4, 8} {
		x, err := shard.Build(data, S, testOpts())
		if err != nil {
			t.Fatalf("S=%d: %v", S, err)
		}
		indexes[S] = x
	}
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		want := make([]core.Match, data.Count())
		for p := range want {
			want[p] = core.Match{Position: p, Dist: vector.SquaredEuclideanEarlyAbandon(data.At(p), q, math.Inf(1))}
		}
		sortMatches(want)
		for _, k := range []int{1, 5, 50} {
			for S, x := range indexes {
				got := knn(t, x, q, k)
				if len(got) != k {
					t.Fatalf("S=%d k=%d, query %d: %d matches", S, k, qi, len(got))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("S=%d k=%d, query %d: match %d is %+v, brute force %+v",
							S, k, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func sortMatches(ms []core.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Dist != ms[j].Dist {
			return ms[i].Dist < ms[j].Dist
		}
		return ms[i].Position < ms[j].Position
	})
}

// TestAtMapping: the global position space round-trips through the shards,
// each shard holds the contiguous range its Start begins, and a static
// build indexes the caller's storage in place instead of copying it.
func TestAtMapping(t *testing.T) {
	data := testData(t, 257) // deliberately not a multiple of the shard count
	x, err := shard.Build(data, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < x.NumShards(); s++ {
		sh := x.Shard(s)
		for i := 0; i < sh.Data.Count(); i++ {
			got, want := sh.Data.At(i), data.At(x.Start(s)+i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("shard %d local %d: differs from position %d at point %d", s, i, x.Start(s)+i, j)
				}
			}
		}
		if &sh.Data.Data[0] != &data.Data[x.Start(s)*testLength] {
			t.Fatalf("shard %d copies its range instead of aliasing the caller's storage", s)
		}
		if len(sh.Data.Data) != cap(sh.Data.Data) {
			t.Fatalf("shard %d storage can grow into its neighbour (len %d, cap %d)", s, len(sh.Data.Data), cap(sh.Data.Data))
		}
	}
	for p := 0; p < data.Count(); p++ {
		got := x.At(p)
		want := data.At(p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("position %d: shard view differs from source at point %d", p, i)
			}
		}
	}
	if st := x.Stats(); st.Series != 257 {
		t.Fatalf("aggregate stats count %d series, want 257", st.Series)
	}
	if ss := x.ShardStats(); len(ss) != 4 || ss[0].Series != 65 || ss[3].Series != 64 {
		t.Fatalf("per-shard stats %+v", ss)
	}
}

// TestFewerSeriesThanShards: a collection of fewer series than shards
// gets one shard per series, and queries still work.
func TestFewerSeriesThanShards(t *testing.T) {
	data := testData(t, 3)
	x, err := shard.Build(data, 8, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if x.NumShards() != 3 {
		t.Fatalf("3 series at 8 shards built %d shards, want 3", x.NumShards())
	}
	for s := 0; s < 3; s++ {
		if x.Start(s) != s || x.Shard(s).Data.Count() != 1 {
			t.Fatalf("shard %d starts at %d with %d series, want %d and 1", s, x.Start(s), x.Shard(s).Data.Count(), s)
		}
	}
	q := make([]float32, testLength)
	copy(q, data.At(2))
	m := nn1(t, x, q)
	if m.Position != 2 || m.Dist != 0 {
		t.Fatalf("self-query answered %+v", m)
	}
	ms := knn(t, x, q, 10)
	if len(ms) != 3 {
		t.Fatalf("k-NN over 3 series returned %d matches", len(ms))
	}
}

// TestFromCoresValidation: mismatched partitions are rejected, and so is a
// nil member at any position.
func TestFromCoresValidation(t *testing.T) {
	data := testData(t, 100)
	x, err := shard.Build(data, 3, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := x.Shard(0), x.Shard(1), x.Shard(2)
	if _, err := shard.FromCores([]*core.Index{a, b, c}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	// 100 over 3 is 34/33/33: the larger shard out of place breaks the
	// partition's counts.
	if _, err := shard.FromCores([]*core.Index{b, a, c}); err == nil {
		t.Fatal("out-of-order partition accepted")
	}
	for s := 0; s < 3; s++ {
		cores := []*core.Index{a, b, c}
		cores[s] = nil
		if _, err := shard.FromCores(cores); err == nil {
			t.Fatalf("partition with shard %d nil accepted", s)
		}
	}
	if _, err := shard.FromCores([]*core.Index{a, b, c, nil}); err == nil {
		t.Fatal("partition with a trailing nil shard accepted")
	}
	if _, err := shard.FromCores([]*core.Index{nil}); err == nil {
		t.Fatal("one nil shard accepted")
	}
	if _, err := shard.FromCores(nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	// One shard takes the general path: a whole collection is its own
	// range.
	one, err := shard.FromCores([]*core.Index{a})
	if err != nil || one.NumShards() != 1 || one.Len() != a.Data.Count() {
		t.Fatalf("one-shard partition: %v", err)
	}
}

// TestBuildValidation covers the construction error paths.
func TestBuildValidation(t *testing.T) {
	data := testData(t, 10)
	if _, err := shard.Build(nil, 2, testOpts()); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := shard.Build(data, 0, testOpts()); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := shard.Build(data, shard.MaxShards+1, testOpts()); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}

// TestApproxSearch: the sharded approximate answer is a valid upper bound
// and finds exact self-matches.
func TestApproxSearch(t *testing.T) {
	data := testData(t, testSeries)
	x, err := shard.Build(data, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, testLength)
	copy(q, data.At(123))
	m := matches(t, x, core.Request{Query: q, Mode: core.ModeApprox})[0]
	if m.Dist != 0 || m.Position != 123 {
		t.Fatalf("approx self-query answered %+v", m)
	}
	exact := nn1(t, x, data.At(7))
	approx := matches(t, x, core.Request{Query: data.At(7), Mode: core.ModeApprox})[0]
	if approx.Dist < exact.Dist || math.IsInf(approx.Dist, 1) {
		t.Fatalf("approx distance %v not an upper bound of exact %v", approx.Dist, exact.Dist)
	}
}

// TestDoValidation: the one place a request is checked against a shard
// group rejects each bad shape with its sentinel, whatever S.
func TestDoValidation(t *testing.T) {
	data := testData(t, 100)
	for _, S := range []int{1, 4} {
		x, err := shard.Build(data, S, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		good := data.At(0)
		for _, tc := range []struct {
			name string
			req  core.Request
			want error
		}{
			{"wrong length", core.Request{Query: make([]float32, 32)}, core.ErrWrongLength},
			{"negative k", core.Request{Query: good, K: -3}, core.ErrBadK},
			{"k-NN under DTW", core.Request{Query: good, K: 3, DTW: true, Window: 6}, core.ErrBadK},
			{"negative window", core.Request{Query: good, DTW: true, Window: -1}, core.ErrBadWindow},
			{"window as long as the series", core.Request{Query: good, DTW: true, Window: testLength}, core.ErrBadWindow},
			{"negative epsilon", core.Request{Query: good, Mode: core.ModeEpsilon, Epsilon: -1}, core.ErrBadEpsilon},
		} {
			if _, err := do(x, tc.req); !errors.Is(err, tc.want) {
				t.Errorf("S=%d %s: err = %v, want %v", S, tc.name, err, tc.want)
			}
		}
	}
}
