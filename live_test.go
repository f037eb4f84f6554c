package messi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/series"
)

// liveTestOpts keeps live-index tests fast: small trees and pools.
func liveTestOpts() *Options {
	return &Options{LeafCapacity: 64, IndexWorkers: 4, SearchWorkers: 4}
}

// rowsOf splits flat random-walk storage into rows.
func rowsOf(data []float32, length int) [][]float32 {
	rows := make([][]float32, len(data)/length)
	for i := range rows {
		rows[i] = data[i*length : (i+1)*length]
	}
	return rows
}

// TestLiveEquivalence: a LiveIndex seeded with half the data and fed the
// rest through Append/AppendBatch must answer Search, SearchKNN and
// SearchDTW exactly like a from-scratch Build over the union — both
// before any rebuild (delta path) and after Flush (rebuilt path).
func TestLiveEquivalence(t *testing.T) {
	const n, length = 1200, 64
	all := rowsOf(RandomWalk(n, length, 21), length)
	queries := rowsOf(RandomWalk(10, length, 22), length)

	oracle, err := Build(all, liveTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	lix, err := BuildLive(all[:n/2], liveTestOpts(), &LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	if _, err := lix.AppendBatch(all[n/2 : 3*n/4]); err != nil {
		t.Fatal(err)
	}
	for _, s := range all[3*n/4:] {
		if _, err := lix.Append(s); err != nil {
			t.Fatal(err)
		}
	}

	check := func(t *testing.T) {
		t.Helper()
		for qi, q := range queries {
			got, err := nn1(lix, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nn1(oracle, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Distance != want.Distance || got.Position != want.Position {
				t.Fatalf("query %d: live %+v, fresh %+v", qi, got, want)
			}
			gotK, err := knn(lix, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			wantK, err := knn(oracle, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("query %d: live k-NN %d matches, fresh %d", qi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i].Distance != wantK[i].Distance {
					t.Fatalf("query %d k-NN rank %d: live %v, fresh %v", qi, i, gotK[i].Distance, wantK[i].Distance)
				}
			}
			gotD, err := dtwNN(lix, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := dtwNN(oracle, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if gotD.Distance != wantD.Distance {
				t.Fatalf("query %d DTW: live %v, fresh %v", qi, gotD.Distance, wantD.Distance)
			}
		}
	}
	if st := lix.Stats(); st.DeltaSeries != n/2 {
		t.Fatalf("pre-flush delta holds %d series, want %d", st.DeltaSeries, n/2)
	}
	t.Run("delta", check)
	if err := lix.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := lix.Stats(); st.DeltaSeries != 0 || st.BaseSeries != n || st.Generation != 2 {
		t.Fatalf("post-flush stats %+v", st)
	}
	t.Run("rebuilt", check)
}

// TestLiveEquivalenceNormalized: the Normalize option applies the same
// z-normalization on both the build and streaming paths.
func TestLiveEquivalenceNormalized(t *testing.T) {
	const n, length = 400, 64
	all := rowsOf(RandomWalk(n, length, 23), length)
	opts := liveTestOpts()
	opts.Normalize = true

	oracle, err := Build(all, opts)
	if err != nil {
		t.Fatal(err)
	}
	lix, err := BuildLive(all[:n/2], opts, &LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	caller := make([]float32, length)
	copy(caller, all[n/2][0:length])
	if _, err := lix.AppendBatch(all[n/2:]); err != nil {
		t.Fatal(err)
	}
	// Appending with Normalize must not mutate the caller's slices.
	for j, v := range all[n/2][0:length] {
		if v != caller[j] {
			t.Fatal("Append mutated the caller's series")
		}
	}
	q := rowsOf(RandomWalk(1, length, 24), length)[0]
	got, err := nn1(lix, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nn1(oracle, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Distance != want.Distance {
		t.Fatalf("normalized: live %v, fresh %v", got.Distance, want.Distance)
	}
}

// TestLiveConcurrentAppendSearch is the public-API race test: concurrent
// Append and Search/SearchKNN while a tiny rebuild threshold forces
// background generation swaps mid-traffic. Run under -race in CI.
func TestLiveConcurrentAppendSearch(t *testing.T) {
	const length = 64
	initialFlat := RandomWalk(300, length, 25)
	initial := rowsOf(initialFlat, length)
	lix, err := BuildLive(initial, liveTestOpts(), &LiveOptions{RebuildThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()

	extra := rowsOf(RandomWalk(300, length, 26), length)
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < len(extra); i += 2 {
				if _, err := lix.Append(extra[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := initial[(s*131+i*17)%len(initial)]
				m, err := nn1(lix, q)
				if err != nil {
					t.Error(err)
					return
				}
				if m.Distance != 0 {
					t.Errorf("self-query distance %v, want 0", m.Distance)
					return
				}
				if _, err := knn(lix, q, 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := lix.Flush(); err != nil {
		t.Fatal(err)
	}
	st := lix.Stats()
	if st.Series != 600 || st.DeltaSeries != 0 {
		t.Fatalf("final stats %+v", st)
	}
	if st.Generation < 2 {
		t.Fatalf("generation %d: background rebuilds never ran", st.Generation)
	}
	// Everything appended mid-traffic is now indexed and findable.
	for i := 0; i < len(extra); i += 29 {
		m, err := nn1(lix, extra[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.Distance != 0 {
			t.Fatalf("appended series %d not found exactly (distance %v)", i, m.Distance)
		}
	}
}

// TestLiveEmptyStart: NewLive starts with no data and becomes searchable
// on the first append.
func TestLiveEmptyStart(t *testing.T) {
	const length = 64
	lix, err := NewLive(length, liveTestOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	if _, err := nn1(lix, make([]float32, length)); err == nil {
		t.Fatal("search over empty live index succeeded")
	}
	rows := rowsOf(RandomWalk(10, length, 27), length)
	pos, err := lix.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 0 {
		t.Fatalf("first batch position %d, want 0", pos)
	}
	m, err := nn1(lix, rows[3])
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 3 || m.Distance != 0 {
		t.Fatalf("delta-only self-query answered %+v", m)
	}
}

// TestCardinalityValidation covers the math/bits-based power-of-two check.
func TestCardinalityValidation(t *testing.T) {
	data := RandomWalk(100, 64, 28)
	for _, c := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		if _, err := BuildFlat(data, 64, &Options{Cardinality: c, LeafCapacity: 64}); err != nil {
			t.Errorf("cardinality %d rejected: %v", c, err)
		}
	}
	for _, c := range []int{1, 3, 5, 12, 200, 257, 512, -4} {
		if _, err := BuildFlat(data, 64, &Options{Cardinality: c, LeafCapacity: 64}); err == nil {
			t.Errorf("cardinality %d accepted", c)
		}
	}
}

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

// smallOpts keeps trees and pools small enough for fast unit tests.
func smallOpts(shards int) *Options {
	return &Options{LeafCapacity: 32, SearchWorkers: 4, IndexWorkers: 4, ChunkSize: 128, Shards: shards}
}

// smallLive opens a live index whose first generation is rows (none for
// an empty start), with smallBlocks, closed when the test ends.
func smallLive(t *testing.T, length int, rows [][]float32, opts *Options, lopts *LiveOptions) *LiveIndex {
	t.Helper()
	var ix *LiveIndex
	var err error
	if len(rows) == 0 {
		ix, err = NewLive(length, opts, lopts)
	} else {
		ix, err = BuildLive(rows, opts, lopts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	smallBlocks(ix)
	return ix
}

// smallBlocks gives a fresh index's empty delta 64-series blocks, so a few
// hundred appends span several delta chunks.
func smallBlocks(ix *LiveIndex) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.blockSeries = 64
	ix.active = ix.newDelta()
}

// threshold returns LiveOptions with the given rebuild threshold.
func threshold(n int) *LiveOptions { return &LiveOptions{RebuildThreshold: n} }

// oracle answers exact requests by brute force over every series the
// live index holds — what the live index must agree with, bitwise.
type oracle struct{ data *series.Collection }

func (o oracle) Do(_ context.Context, req SearchRequest) (Result, error) {
	var ms []core.Match
	var err error
	if req.DTW {
		var m core.Match
		m, err = scan.SearchDTW(o.data, req.Query, dtw.WindowSize(o.data.Length, req.Window), 1, nil)
		ms = []core.Match{m}
	} else {
		ms, err = scan.SearchKNN(o.data, req.Query, max(req.K, 1), 1, nil)
	}
	return publicResult(core.Result{Matches: ms, Exact: true}), err
}

func bruteForce(t *testing.T, rows [][]float32) oracle {
	t.Helper()
	col, err := series.FromSlices(rows)
	if err != nil {
		t.Fatal(err)
	}
	return oracle{col}
}

// TestEquivalenceAcrossLifecycle: live answers must equal brute force over
// the union of the data at every stage — base-only, mixed base+delta
// (several delta chunks), and post-flush.
func TestEquivalenceAcrossLifecycle(t *testing.T) {
	const length = 64
	all := walk(600, length, 1)
	queries := walk(20, length, 99)

	// Stage machinery: check live against brute force over rows.
	check := func(t *testing.T, ix *LiveIndex, rows [][]float32) {
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
			if got.Distance != want.Distance {
				t.Fatalf("query %d: live 1-NN %+v, brute force %+v", qi, got, want)
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
				if gotK[i].Distance != wantK[i].Distance {
					t.Fatalf("query %d k-NN rank %d: live %v, brute force %v", qi, i, gotK[i].Distance, wantK[i].Distance)
				}
			}
			gotD, err := dtwNN(ix, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := dtwNN(oracle, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if gotD.Distance != wantD.Distance {
				t.Fatalf("query %d: live DTW %v, brute force %v", qi, gotD.Distance, wantD.Distance)
			}
		}
	}

	// Large threshold: no automatic rebuild, so each stage tests a known
	// base/delta split.
	ix := smallLive(t, length, all[:200], smallOpts(1), threshold(1_000_000))

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
	ix := smallLive(t, length, rows[:100], smallOpts(1), threshold(1_000_000))
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
	ix := smallLive(t, length, nil, smallOpts(1), threshold(1_000_000))

	if _, err := nn1(ix, make([]float32, length)); !errors.Is(err, core.ErrEmptyIndex) {
		t.Fatalf("empty search error = %v, want core.ErrEmptyIndex", err)
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
	if m.Position != 17 || m.Distance != 0 {
		t.Fatalf("self-query answered %+v, want position 17 distance 0", m)
	}
	if g := ix.Stats().Generation; g != 0 {
		t.Fatalf("generation = %d before first rebuild", g)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := ix.Stats().Generation; g != 1 {
		t.Fatalf("generation = %d after flush, want 1", g)
	}
	m, err = nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 17 || m.Distance != 0 {
		t.Fatalf("post-flush self-query answered %+v", m)
	}
}

// TestAutomaticRebuild: crossing the threshold triggers a background
// generation swap without any explicit Flush.
func TestAutomaticRebuild(t *testing.T) {
	const length = 32
	ix := smallLive(t, length, walk(100, length, 4), smallOpts(1), threshold(50))
	for _, s := range walk(500, length, 5) {
		if _, err := ix.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: wait for in-flight rebuilds, then assert at least one
	// background swap happened before the final explicit flush.
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := ix.Stats().Generation; g < 2 {
		t.Fatalf("generation = %d after 500 appends over threshold 50, want >= 2", g)
	}
	if st := ix.Stats(); st.Series != 600 || st.DeltaSeries != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestRebuildAppendsInPlace: a rebuild appends the frozen chunks past the
// current generation's series in their shared array and copies them only
// into a new array, a quarter larger, when that one is full; a rebuild
// that fails after writing there is retried over the same place. Every
// position keeps its series and every answer is the brute-force one.
func TestRebuildAppendsInPlace(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	const length = 32
	rows := walk(200, length, 5)
	queries := walk(8, length, 77)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix := smallLive(t, length, rows[:100], smallOpts(shards), threshold(1_000_000))
			check := func() {
				t.Helper()
				n := ix.Len()
				for i := 0; i < n; i++ {
					got, err := ix.Series(i)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, rows[i]) {
						t.Fatalf("series %d differs from what was appended", i)
					}
				}
				oracle := bruteForce(t, rows[:n])
				for qi, q := range queries {
					got, err := nn1(ix, q)
					if err != nil {
						t.Fatal(err)
					}
					if want, _ := nn1(oracle, q); got != want {
						t.Fatalf("query %d over %d series: live %+v, brute force %+v", qi, n, got, want)
					}
				}
			}
			appendTo := func(n int) {
				t.Helper()
				if _, err := ix.AppendBatch(rows[ix.Len():n]); err != nil {
					t.Fatal(err)
				}
			}
			array := func() *float32 { return unsafe.SliceData(ix.store) }

			// The boot generation has no room: the first rebuild copies.
			appendTo(120)
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			if c := cap(ix.store) / length; c != 150 {
				t.Fatalf("after the first rebuild the array holds %d series, want 150", c)
			}
			grown := array()
			check()

			appendTo(140)
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			if array() != grown {
				t.Fatal("a rebuild within the array's capacity copied the series")
			}
			check()

			// Fail once after the frozen chunks are written in place: they
			// stay searchable, and the timed retry writes them again.
			if err := fault.Arm("live.rebuild", fault.Spec{Action: fault.Error}); err != nil {
				t.Fatal(err)
			}
			appendTo(150)
			if err := ix.Flush(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("flush with an armed rebuild = %v, want the injected error", err)
			}
			check()
			for deadline := time.Now().Add(5 * time.Second); ix.Stats().BaseSeries < 150; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the retry never published: %+v", ix.Stats())
				}
			}
			if array() != grown {
				t.Fatal("the retried rebuild copied the series")
			}
			check()

			// One more series than the array holds: a new array.
			appendTo(151)
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			if array() == grown {
				t.Fatal("a full array was appended past its capacity")
			}
			check()
		})
	}
}

// TestConcurrentAppendSearchDuringRebuild is the -race stress: appenders,
// searchers, and background rebuilds all run concurrently, and every
// answer must be exact with respect to some consistent prefix of the
// appended data (here: self-queries find themselves).
func TestConcurrentAppendSearchDuringRebuild(t *testing.T) {
	const length = 32
	initial := walk(200, length, 6)
	ix := smallLive(t, length, initial, smallOpts(1), threshold(40)) // tiny threshold: many rebuilds

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
	// exact match (distance 0) no matter which generation answers.
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
				if m.Distance != 0 {
					t.Errorf("self-query distance %v, want 0", m.Distance)
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
		if m.Distance != 0 {
			t.Fatalf("appended series %d not found exactly (distance %v)", i, m.Distance)
		}
	}
	if st := ix.Stats(); st.Series != 600 || st.DeltaSeries != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestAckedAppendVisibleToNextQuery: a series is searchable the moment
// Append returns. Three appenders append distinct rows one at a time while
// rebuilds come and go (threshold 40), and each queries its row right
// after the ack: the answer must be that position, at distance 0, exact.
func TestAckedAppendVisibleToNextQuery(t *testing.T) {
	const length = 32
	ix := smallLive(t, length, walk(200, length, 11), smallOpts(1), threshold(40))
	rows := walk(300, length, 12)
	var wg sync.WaitGroup
	for a := 0; a < 3; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < len(rows); i += 3 {
				pos, err := ix.Append(rows[i])
				if err != nil {
					t.Error(err)
					return
				}
				res, err := ix.Do(context.Background(), SearchRequest{Query: rows[i]})
				if err != nil {
					t.Error(err)
					return
				}
				if m := res.Best(); m.Position != pos || m.Distance != 0 || !res.Exact {
					t.Errorf("row %d acked at position %d: query answered %+v, exact %v", i, pos, m, res.Exact)
					return
				}
			}
		}(a)
	}
	wg.Wait()
}

// TestClose: operations after Close fail cleanly and Close is idempotent.
func TestClose(t *testing.T) {
	const length = 32
	ix := smallLive(t, length, walk(50, length, 8), smallOpts(1), threshold(1_000_000))
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := ix.Append(make([]float32, length)); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed", err)
	}
	if err := ix.Flush(); !errors.Is(err, errClosed) {
		t.Fatalf("flush after close: %v, want errClosed", err)
	}
}

// TestValidation: malformed inputs are rejected.
func TestValidation(t *testing.T) {
	const length = 32
	ix := smallLive(t, length, walk(50, length, 9), smallOpts(1), threshold(1_000_000))
	if _, err := ix.Append(make([]float32, 5)); err == nil {
		t.Error("short append accepted")
	}
	if _, err := nn1(ix, make([]float32, 5)); err == nil {
		t.Error("short query accepted")
	}
	if _, err := knn(ix, make([]float32, length), -1); !errors.Is(err, ErrBadK) {
		t.Errorf("negative k: err = %v, want ErrBadK", err)
	}
	if _, err := ix.Series(-1); err == nil {
		t.Error("negative position accepted")
	}
	if _, err := ix.Series(10_000); err == nil {
		t.Error("out-of-range position accepted")
	}
	other, err := Build(walk(5, 32, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openLive(16, other.inner, false, core.Options{}, 1, nil); err == nil {
		t.Error("mismatched initial collection accepted")
	}
	if _, err := NewLive(33, nil, nil); err == nil {
		t.Error("series length not a multiple of segments accepted")
	}
}

// TestKNNSpansBaseAndDelta: a k-NN answer must interleave base and delta
// series when both hold near neighbors, with k larger than the base.
func TestKNNSpansBaseAndDelta(t *testing.T) {
	const length = 32
	base := walk(3, length, 11)
	ix := smallLive(t, length, base, smallOpts(1), threshold(1_000_000))
	if _, err := ix.AppendBatch(walk(10, length, 12)); err != nil {
		t.Fatal(err)
	}
	ms, err := knn(ix, base[0], 13)
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

// TestShardedLifecycle: sharded live indexes (S ∈ {3, 4}, counts not
// divisible by S) answer identically to brute force at every stage, keep
// every position stable across two generational rebuilds, a snapshot round
// trip and a rebuild after it, and report per-shard stats.
func TestShardedLifecycle(t *testing.T) {
	const length = 64
	all := walk(703, length, 3)
	queries := walk(10, length, 303)

	sizes := []int{3, 4}
	ixs := make([]*LiveIndex, len(sizes))
	for i, S := range sizes {
		ixs[i] = smallLive(t, length, all[:202], smallOpts(S), threshold(1_000_000))
		if got := ixs[i].Stats().Shards; got != S {
			t.Fatalf("Shards = %d, want %d", got, S)
		}
	}

	// check compares every position and every query flavour with brute
	// force over rows, on every shard count.
	check := func(t *testing.T, rows [][]float32) {
		t.Helper()
		oracle := bruteForce(t, rows)
		for i, ix := range ixs {
			S := sizes[i]
			if ix.Len() != len(rows) {
				t.Fatalf("S=%d: Len = %d, want %d", S, ix.Len(), len(rows))
			}
			for p, row := range rows {
				got, err := ix.Series(p)
				if err != nil {
					t.Fatal(err)
				}
				for j := range row {
					if got[j] != row[j] {
						t.Fatalf("S=%d: position %d differs at point %d", S, p, j)
					}
				}
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
				if got != want {
					t.Fatalf("S=%d query %d: sharded live %+v, brute force %+v", S, qi, got, want)
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
					t.Fatalf("S=%d query %d: k-NN %d matches, brute force %d", S, qi, len(gotK), len(wantK))
				}
				for r := range gotK {
					if gotK[r] != wantK[r] {
						t.Fatalf("S=%d query %d rank %d: sharded live %+v, brute force %+v", S, qi, r, gotK[r], wantK[r])
					}
				}
				gotD, err := dtwNN(ix, q, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				wantD, err := dtwNN(oracle, q, 0.1)
				if err != nil {
					t.Fatal(err)
				}
				if gotD != wantD {
					t.Fatalf("S=%d query %d: sharded live DTW %+v, brute force %+v", S, qi, gotD, wantD)
				}
			}
		}
	}
	appendRows := func(from, to int) {
		t.Helper()
		for _, ix := range ixs {
			if _, err := ix.AppendBatch(all[from:to]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// flush rebuilds every index into a new generation of to series.
	flush := func(to int) {
		t.Helper()
		for i, ix := range ixs {
			S, gen := sizes[i], ix.Stats().Generation
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
			st := ix.Stats()
			if st.Generation != gen+1 {
				t.Fatalf("S=%d: flush built generation %d, want %d", S, st.Generation, gen+1)
			}
			if st.DeltaSeries != 0 || st.BaseSeries != to || st.Shards != S || len(st.PerShard) != S {
				t.Fatalf("S=%d after flush: %+v", S, st)
			}
			perShardTotal := 0
			for _, ps := range st.PerShard {
				perShardTotal += ps.Series
			}
			if perShardTotal != to || st.Index.Series != to {
				t.Fatalf("S=%d: per-shard series sum %d, aggregate %d, want %d", S, perShardTotal, st.Index.Series, to)
			}
		}
	}

	t.Run("base-only", func(t *testing.T) { check(t, all[:202]) })
	appendRows(202, 401)
	t.Run("base-plus-delta", func(t *testing.T) { check(t, all[:401]) })
	flush(401)
	t.Run("post-flush", func(t *testing.T) { check(t, all[:401]) })
	appendRows(401, 557)
	t.Run("base-plus-delta-2", func(t *testing.T) { check(t, all[:557]) })
	flush(557)
	t.Run("post-flush-2", func(t *testing.T) { check(t, all[:557]) })

	// The flushed generations through a snapshot: a loaded generation
	// fixes the shard count whatever the options ask for.
	for i, ix := range ixs {
		dir := filepath.Join(t.TempDir(), "snap")
		if err := ix.Save(dir); err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadLive(dir, smallOpts(1), threshold(1_000_000))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { loaded.Close() })
		smallBlocks(loaded)
		if got := loaded.Stats().Shards; got != sizes[i] {
			t.Fatalf("loaded Shards = %d, want %d", got, sizes[i])
		}
		ixs[i] = loaded
	}
	t.Run("loaded", func(t *testing.T) { check(t, all[:557]) })
	appendRows(557, len(all))
	t.Run("loaded-plus-delta", func(t *testing.T) { check(t, all) })
	flush(len(all))
	t.Run("loaded-post-flush", func(t *testing.T) { check(t, all) })
}

// TestSmallLiveGrowsIntoShardCount: a live index seeded with fewer series
// than its shard count has one shard per series, keeps asking for the
// count, and builds every shard at its first rebuild past it; answers
// match brute force at every step.
func TestSmallLiveGrowsIntoShardCount(t *testing.T) {
	const length = 64
	all := walk(6, length, 4)
	queries := append(walk(5, length, 404), all...)
	ix := smallLive(t, length, all[:3], smallOpts(4), threshold(1_000_000))

	check := func(rows [][]float32, shards int) {
		t.Helper()
		st := ix.Stats()
		if st.Series != len(rows) || st.Shards != 4 || len(st.PerShard) != shards {
			t.Fatalf("%d series: Series %d, Shards %d, %d per-shard entries, want %d, 4, %d",
				len(rows), st.Series, st.Shards, len(st.PerShard), len(rows), shards)
		}
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
				t.Fatalf("%d series, query %d: live %+v, brute force %+v", len(rows), qi, got, want)
			}
			gotK, err := knn(ix, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			wantK, err := knn(oracle, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotK, wantK) {
				t.Fatalf("%d series, query %d: live 5-NN %+v, brute force %+v", len(rows), qi, gotK, wantK)
			}
		}
	}

	check(all[:3], 3)
	for n := 4; n <= len(all); n++ {
		if _, err := ix.Append(all[n-1]); err != nil {
			t.Fatal(err)
		}
		check(all[:n], 3) // the generation is still the seed's
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	check(all, 4)
}

// TestSmallSnapshotGrowsIntoShardCount: a live index saved while it held
// fewer series than Options.Shards loads asking for Options.Shards, not
// for the snapshot's member count, and grows into them at its first
// rebuild past them — as the same rows booted with BuildLive do.
func TestSmallSnapshotGrowsIntoShardCount(t *testing.T) {
	const length = 64
	all := walk(10, length, 5)
	queries := append(walk(5, length, 505), all...)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := smallLive(t, length, all[:3], smallOpts(8), threshold(1_000_000)).Save(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadLive(dir, smallOpts(8), threshold(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })

	check := func(n, members int) {
		t.Helper()
		st := ix.Stats()
		if st.Series != n || st.Shards != 8 || len(st.PerShard) != members {
			t.Fatalf("%d series: Series %d, Shards %d, %d per-shard entries, want %d, 8, %d",
				n, st.Series, st.Shards, len(st.PerShard), n, members)
		}
		oracle := bruteForce(t, all[:n])
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
				t.Fatalf("%d series, query %d: loaded %+v, brute force %+v", n, qi, got, want)
			}
		}
	}
	check(3, 3)
	for n := 4; n <= len(all); n++ {
		if _, err := ix.Append(all[n-1]); err != nil {
			t.Fatal(err)
		}
		check(n, 3) // the generation is still the snapshot's
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	check(len(all), 8)
}

// TestLiveQueryPanicIsolated: the delta is searched by the engine's workers,
// inside its panic isolation. A unit of query work that panics — for an
// index with no generation that can only be a delta chunk's scan — fails
// that one query with ErrQueryPanicked; the process lives, and the next
// query on the same index is answered exactly.
func TestLiveQueryPanicIsolated(t *testing.T) {
	const length = 64
	rows := walk(400, length, 21)
	queries := walk(2, length, 22)
	oracle := bruteForce(t, rows)
	flavours := []struct {
		name string
		req  SearchRequest
	}{
		{"1-NN", SearchRequest{}},
		{"k=5", SearchRequest{K: 5}},
		{"DTW", SearchRequest{DTW: true, Window: 0.1}},
	}
	for _, S := range []int{1, 2} {
		for _, based := range []bool{true, false} {
			for _, fl := range flavours {
				t.Run(fmt.Sprintf("S=%d/generation=%v/%s", S, based, fl.name), func(t *testing.T) {
					t.Cleanup(fault.DisarmAll)
					var initial [][]float32
					appended := rows
					if based {
						initial, appended = rows[:250], rows[250:]
					}
					ix := smallLive(t, length, initial, smallOpts(S), threshold(1<<30))
					if _, err := ix.AppendBatch(appended); err != nil {
						t.Fatal(err)
					}

					if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic}); err != nil {
						t.Fatal(err)
					}
					req := fl.req
					req.Query = queries[0]
					if _, err := ix.Do(context.Background(), req); !errors.Is(err, ErrQueryPanicked) {
						t.Fatalf("err = %v, want ErrQueryPanicked", err)
					}

					// Disarmed (one-shot): the next query is exact.
					req.Query = queries[1]
					want, err := oracle.Do(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ix.Do(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Exact || len(got.Matches) != len(want.Matches) {
						t.Fatalf("after recovery: got %+v, want %+v", got, want)
					}
					for i := range got.Matches {
						if got.Matches[i] != want.Matches[i] {
							t.Fatalf("after recovery: match %d is %+v, brute force %+v", i, got.Matches[i], want.Matches[i])
						}
					}
				})
			}
		}
	}
}

// TestRejectedBeforeTheGate: the live index does not validate — it hands
// its view to the engine, which checks a request once, before admission.
// So a malformed request leaves no trace at the gate or in the delta, and
// a well-formed one is admitted exactly once.
func TestRejectedBeforeTheGate(t *testing.T) {
	const length = 32
	reg := NewMetrics()
	ix := smallLive(t, length, walk(50, length, 31), smallOpts(1), &LiveOptions{RebuildThreshold: 1 << 30, Engine: EngineOptions{Metrics: reg}})
	if _, err := ix.AppendBatch(walk(20, length, 32)); err != nil {
		t.Fatal(err)
	}
	good := walk(1, length, 33)[0]
	for _, tc := range []struct {
		name string
		req  SearchRequest
		want error
	}{
		{"wrong length", SearchRequest{Query: good[:5]}, ErrWrongLength},
		{"negative k", SearchRequest{Query: good, K: -1}, ErrBadK},
		{"negative epsilon", SearchRequest{Query: good, Mode: ModeEpsilon, Epsilon: -1}, ErrBadEpsilon},
		{"k-NN under DTW", SearchRequest{Query: good, K: 3, DTW: true, Window: 0.1}, ErrBadK},
	} {
		if _, err := ix.Do(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, name := range []string{"messi_queries_admitted_total", "messi_admission_wait_seconds_count", "messi_real_dist_calcs_total"} {
		if got := sample(t, reg, name); got != "0" {
			t.Errorf("after four malformed requests %s = %s, want 0", name, got)
		}
	}
	if _, err := nn1(ix, good); err != nil {
		t.Fatal(err)
	}
	if got := sample(t, reg, "messi_queries_admitted_total"); got != "1" {
		t.Errorf("after one well-formed request messi_queries_admitted_total = %s, want 1", got)
	}
	if got := sample(t, reg, "messi_real_dist_calcs_total"); got == "0" {
		t.Error("the delta scan and tree search of an admitted request counted no distance")
	}
}

// TestFlushReturnsUnderSteadyIngest: Flush merges what was appended before
// it was called and returns while an appender keeps adding a batch every
// 200 µs — the appender never starves it.
func TestFlushReturnsUnderSteadyIngest(t *testing.T) {
	const length = 32
	ix, err := BuildLive(walk(200, length, 51), smallOpts(1), threshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	batch := walk(64, length, 52)
	stop, started, appender := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				appender <- nil
				return
			default:
			}
			if _, err := ix.AppendBatch(batch); err != nil {
				appender <- err
				return
			}
			if i == 0 {
				close(started)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	<-started
	entry := ix.Len()
	flushed := make(chan error, 1)
	go func() { flushed <- ix.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Error("Flush did not return within 20 s while appends continued")
	}
	close(stop)
	if err := <-appender; err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.BaseSeries < entry {
		t.Fatalf("after Flush the generation holds %d series, want at least the %d appended before it", st.BaseSeries, entry)
	}
}
