package messi

import (
	"sync"
	"testing"
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
