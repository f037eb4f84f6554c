package live

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/scan"
	"repro/internal/series"
)

// walk generates n random-walk series of the given length.
func walk(n, length int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float32, n)
	for i := range rows {
		s := make([]float32, length)
		v := float32(0)
		for j := range s {
			v += float32(rng.NormFloat64())
			s[j] = v
		}
		rows[i] = s
	}
	return rows
}

func collection(t *testing.T, rows [][]float32) *series.Collection {
	t.Helper()
	col, err := series.FromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// smallOpts keeps trees and pools small enough for fast unit tests.
func smallOpts(threshold int) Options {
	return Options{
		Core:             core.Options{LeafCapacity: 32, SearchWorkers: 4, IndexWorkers: 4, ChunkSize: 128},
		RebuildThreshold: threshold,
		BlockSeries:      64,
	}
}

// oracle answers exact requests by brute force over every series the
// live index holds — what the live index must agree with, bitwise.
type oracle struct{ data *series.Collection }

func (o oracle) Do(req core.Request) (core.Result, error) {
	if req.DTW {
		m, err := scan.SearchDTW(o.data, req.Query, req.Window, 1, nil)
		return core.Result{Matches: []core.Match{m}, Exact: true}, err
	}
	ms, err := scan.SearchKNN(o.data, req.Query, max(req.K, 1), 1, nil)
	return core.Result{Matches: ms, Exact: true}, err
}

func bruteForce(t *testing.T, rows [][]float32) oracle {
	t.Helper()
	return oracle{collection(t, rows)}
}

// Helpers over Do, one per request flavour, for the live index and the
// oracle alike.

type doer interface {
	Do(core.Request) (core.Result, error)
}

func nn1(ix doer, q []float32) (core.Match, error) {
	return first(ix.Do(core.Request{Query: q}))
}

func knn(ix doer, q []float32, k int) ([]core.Match, error) {
	res, err := ix.Do(core.Request{Query: q, K: k})
	return res.Matches, err
}

func dtwNN(ix doer, q []float32, window int) (core.Match, error) {
	return first(ix.Do(core.Request{Query: q, DTW: true, Window: window}))
}

func first(res core.Result, err error) (core.Match, error) {
	if err != nil {
		return core.Match{}, err
	}
	return res.Matches[0], nil
}

// TestEquivalenceAcrossLifecycle: live answers must equal brute force over
// the union of the data at every stage — delta-only, mixed base+delta, and
// post-flush.
func TestEquivalenceAcrossLifecycle(t *testing.T) {
	const length = 64
	all := walk(600, length, 1)
	queries := walk(20, length, 99)
	window := dtw.WindowSize(length, 0.1)

	// Stage machinery: check live against brute force over rows.
	check := func(t *testing.T, ix *Index, rows [][]float32) {
		t.Helper()
		oracle := bruteForce(t, rows)
		if ix.Len() != len(rows) {
			t.Fatalf("live Len = %d, want %d", ix.Len(), len(rows))
		}
		for qi, q := range queries {
			got, err := nn1(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nn1(oracle, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Dist != want.Dist {
				t.Fatalf("query %d: live 1-NN dist %v (pos %d), brute force %v (pos %d)",
					qi, got.Dist, got.Position, want.Dist, want.Position)
			}
			gotK, err := knn(ix, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantK, err := knn(oracle, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("query %d: live k-NN returned %d, brute force %d", qi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i].Dist != wantK[i].Dist {
					t.Fatalf("query %d k-NN rank %d: live dist %v, brute force %v", qi, i, gotK[i].Dist, wantK[i].Dist)
				}
			}
			gotD, err := dtwNN(ix, q, window)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := dtwNN(oracle, q, window)
			if err != nil {
				t.Fatal(err)
			}
			if gotD.Dist != wantD.Dist {
				t.Fatalf("query %d: live DTW dist %v, brute force %v", qi, gotD.Dist, wantD.Dist)
			}
		}
	}

	// Large threshold: no automatic rebuild, so each stage tests a known
	// base/delta split.
	ix, err := New(length, collection(t, all[:200]), smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	t.Run("base-only", func(t *testing.T) { check(t, ix, all[:200]) })

	if _, err := ix.AppendBatch(all[200:500]); err != nil {
		t.Fatal(err)
	}
	for _, s := range all[500:] {
		if _, err := ix.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("base-plus-delta", func(t *testing.T) { check(t, ix, all) })

	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.DeltaSeries != 0 || st.BaseSeries != len(all) {
		t.Fatalf("after flush: %+v", st)
	}
	if st.Generation != 2 {
		t.Fatalf("after flush generation = %d, want 2", st.Generation)
	}
	t.Run("post-flush", func(t *testing.T) { check(t, ix, all) })
}

// TestAppendPositionsStable: positions are append-order and survive
// rebuilds.
func TestAppendPositionsStable(t *testing.T) {
	const length = 32
	rows := walk(300, length, 2)
	ix, err := New(length, collection(t, rows[:100]), smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for i, s := range rows[100:] {
		pos, err := ix.Append(s)
		if err != nil {
			t.Fatal(err)
		}
		if pos != 100+i {
			t.Fatalf("append %d got position %d", 100+i, pos)
		}
	}
	verify := func() {
		for i, s := range rows {
			got, err := ix.Series(i)
			if err != nil {
				t.Fatal(err)
			}
			for j := range s {
				if got[j] != s[j] {
					t.Fatalf("series %d point %d: got %v, want %v", i, j, got[j], s[j])
				}
			}
		}
	}
	verify()
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	verify()
}

// TestEmptyStart: an index created with no initial data answers from the
// delta alone and builds its first generation on flush.
func TestEmptyStart(t *testing.T) {
	const length = 32
	ix, err := New(length, nil, smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	if _, err := nn1(ix, make([]float32, length)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty search error = %v, want ErrEmpty", err)
	}
	rows := walk(50, length, 3)
	if _, err := ix.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	q := rows[17]
	m, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 17 || m.Dist != 0 {
		t.Fatalf("self-query answered %+v, want position 17 dist 0", m)
	}
	if ix.Generation() != 0 {
		t.Fatalf("generation = %d before first rebuild", ix.Generation())
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if ix.Generation() != 1 {
		t.Fatalf("generation = %d after flush, want 1", ix.Generation())
	}
	m, err = nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 17 || m.Dist != 0 {
		t.Fatalf("post-flush self-query answered %+v", m)
	}
}

// TestAutomaticRebuild: crossing the threshold triggers a background
// generation swap without any explicit Flush.
func TestAutomaticRebuild(t *testing.T) {
	const length = 32
	ix, err := New(length, collection(t, walk(100, length, 4)), smallOpts(50))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rows := walk(500, length, 5)
	for _, s := range rows {
		if _, err := ix.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: wait for in-flight rebuilds, then assert at least one
	// background swap happened before the final explicit flush.
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := ix.Generation(); g < 2 {
		t.Fatalf("generation = %d after 500 appends over threshold 50, want >= 2", g)
	}
	if st := ix.Stats(); st.Series != 600 || st.DeltaSeries != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestConcurrentAppendSearchDuringRebuild is the -race stress: appenders,
// searchers, and background rebuilds all run concurrently, and every
// answer must be exact with respect to some consistent prefix of the
// appended data (distances never worse than the eventual exact answer on
// data the query could see; here we check self-queries find themselves).
func TestConcurrentAppendSearchDuringRebuild(t *testing.T) {
	const length = 32
	initial := walk(200, length, 6)
	ix, err := New(length, collection(t, initial), smallOpts(40)) // tiny threshold: many rebuilds
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	extra := walk(400, length, 7)
	var wg sync.WaitGroup
	// Two appenders splitting the extra rows.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < len(extra); i += 2 {
				if _, err := ix.Append(extra[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	// Searchers: self-queries over the initial data must always find an
	// exact match (dist 0) no matter which generation answers.
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := initial[(s*61+i*7)%len(initial)]
				m, err := nn1(ix, q)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Dist != 0 {
					t.Errorf("self-query dist %v, want 0", m.Dist)
					return
				}
				if _, err := knn(ix, q, 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// A stats poller, to race the view transitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = ix.Stats()
			_ = ix.Len()
		}
	}()
	wg.Wait()

	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every appended series must now be in the generation and findable.
	for i := 0; i < len(extra); i += 37 {
		m, err := nn1(ix, extra[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.Dist != 0 {
			t.Fatalf("appended series %d not found exactly (dist %v)", i, m.Dist)
		}
	}
	if st := ix.Stats(); st.Series != 600 || st.DeltaSeries != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestClose: operations after Close fail cleanly and Close is idempotent.
func TestClose(t *testing.T) {
	const length = 32
	ix, err := New(length, collection(t, walk(50, length, 8)), smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ix.Close()
	if _, err := ix.Append(make([]float32, length)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := ix.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
}

// TestValidation: malformed inputs are rejected.
func TestValidation(t *testing.T) {
	const length = 32
	ix, err := New(length, collection(t, walk(50, length, 9)), smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Append(make([]float32, 5)); err == nil {
		t.Error("short append accepted")
	}
	if _, err := nn1(ix, make([]float32, 5)); err == nil {
		t.Error("short query accepted")
	}
	if _, err := knn(ix, make([]float32, length), -1); !errors.Is(err, core.ErrBadK) {
		t.Errorf("negative k: err = %v, want ErrBadK", err)
	}
	if _, err := ix.Series(-1); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := ix.Series(10_000); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, err := New(16, collection(t, walk(5, 32, 10)), Options{}); err == nil {
		t.Error("mismatched initial collection accepted")
	}
	if _, err := New(33, nil, Options{}); err == nil {
		t.Error("series length not a multiple of segments accepted")
	}
}

// TestKNNSpansBaseAndDelta: a k-NN answer must interleave base and delta
// series when both hold near neighbors, with k larger than the base.
func TestKNNSpansBaseAndDelta(t *testing.T) {
	const length = 32
	base := walk(3, length, 11)
	ix, err := New(length, collection(t, base), smallOpts(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := walk(10, length, 12)
	if _, err := ix.AppendBatch(extra); err != nil {
		t.Fatal(err)
	}
	q := base[0]
	ms, err := knn(ix, q, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 13 {
		t.Fatalf("k-NN over 3+10 series returned %d matches, want 13", len(ms))
	}
	seen := map[int]bool{}
	for _, m := range ms {
		if seen[m.Position] {
			t.Fatalf("duplicate position %d in k-NN answer", m.Position)
		}
		seen[m.Position] = true
	}
}

// TestShardedLifecycle: a sharded live index (S=4) answers identically to
// brute force at every stage, keeps positions stable across
// the per-shard generational rebuilds, and reports per-shard stats.
func TestShardedLifecycle(t *testing.T) {
	const length = 64
	all := walk(600, length, 3)
	queries := walk(10, length, 303)
	window := dtw.WindowSize(length, 0.1)

	opts := smallOpts(1_000_000)
	opts.Shards = 4
	ix, err := New(length, collection(t, all[:200]), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", ix.Shards())
	}

	check := func(t *testing.T, rows [][]float32) {
		t.Helper()
		oracle := bruteForce(t, rows)
		for qi, q := range queries {
			got, err := nn1(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nn1(oracle, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("query %d: sharded live %+v, brute force %+v", qi, got, want)
			}
			gotK, err := knn(ix, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantK, err := knn(oracle, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("query %d: k-NN %d matches, brute force %d", qi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i] != wantK[i] {
					t.Fatalf("query %d rank %d: sharded live %+v, brute force %+v", qi, i, gotK[i], wantK[i])
				}
			}
			gotD, err := dtwNN(ix, q, window)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := dtwNN(oracle, q, window)
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD {
				t.Fatalf("query %d: sharded live DTW %+v, brute force %+v", qi, gotD, wantD)
			}
		}
	}

	t.Run("base-only", func(t *testing.T) { check(t, all[:200]) })

	if _, err := ix.AppendBatch(all[200:]); err != nil {
		t.Fatal(err)
	}
	t.Run("base-plus-delta", func(t *testing.T) { check(t, all) })

	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.DeltaSeries != 0 || st.BaseSeries != len(all) || st.Shards != 4 {
		t.Fatalf("after flush: %+v", st)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries, want 4", len(st.PerShard))
	}
	perShardTotal := 0
	for _, ps := range st.PerShard {
		perShardTotal += ps.Series
	}
	if perShardTotal != len(all) || st.Tree.Series != len(all) {
		t.Fatalf("per-shard series sum %d, aggregate %d, want %d", perShardTotal, st.Tree.Series, len(all))
	}
	t.Run("post-flush", func(t *testing.T) { check(t, all) })

	// Positions remain append-order across the sharded rebuild.
	for _, p := range []int{0, 199, 200, 399, 599} {
		got, err := ix.Series(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != all[p][i] {
				t.Fatalf("position %d changed across sharded rebuild (point %d)", p, i)
			}
		}
	}
}
