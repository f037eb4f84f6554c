package messi

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedPublicEquivalence: Options.Shards ∈ {2,4,8} answers 1-NN,
// k-NN and DTW queries (direct and through the engine) identically to the
// unsharded index.
func TestShardedPublicEquivalence(t *testing.T) {
	data := RandomWalk(2500, 64, 31)
	plain, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	queries := RandomWalk(8, 64, 3131)
	for _, S := range []int{2, 4, 8} {
		sharded, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, Shards: S})
		if err != nil {
			t.Fatalf("Shards=%d: %v", S, err)
		}
		if sharded.Shards() != S || sharded.Len() != plain.Len() {
			t.Fatalf("Shards=%d: shape %d shards × %d series", S, sharded.Shards(), sharded.Len())
		}
		eng := sharded.NewEngine(&EngineOptions{PoolWorkers: 4})
		for qi := 0; qi < 8; qi++ {
			q := queries[qi*64 : (qi+1)*64]
			want, err := nn1(plain, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn1(sharded, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Shards=%d query %d: %+v, unsharded %+v", S, qi, got, want)
			}
			viaEng, err := nn1(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if viaEng != want {
				t.Fatalf("Shards=%d query %d via engine: %+v, unsharded %+v", S, qi, viaEng, want)
			}
			wantK, err := knn(plain, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := knn(sharded, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			engK, err := knn(eng, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) || len(engK) != len(wantK) {
				t.Fatalf("Shards=%d query %d: k-NN lengths %d/%d, want %d", S, qi, len(gotK), len(engK), len(wantK))
			}
			for i := range wantK {
				if gotK[i] != wantK[i] || engK[i] != wantK[i] {
					t.Fatalf("Shards=%d query %d rank %d: direct %+v engine %+v, unsharded %+v",
						S, qi, i, gotK[i], engK[i], wantK[i])
				}
			}
			wantD, err := dtwNN(plain, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := dtwNN(sharded, q, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD {
				t.Fatalf("Shards=%d query %d: DTW %+v, unsharded %+v", S, qi, gotD, wantD)
			}
		}
		eng.Close()
	}
}

// TestShardedSnapshotDirRoundTrip: a sharded index saves as a manifest
// directory, loads back shard-parallel, and keeps answering identically
// — including when booted as a live index that then grows.
func TestShardedSnapshotDirRoundTrip(t *testing.T) {
	data := RandomWalk(1000, 64, 41)
	sharded, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "index.snapdir")
	if err := sharded.Save(dir); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 4 || loaded.Len() != 1000 {
		t.Fatalf("loaded %d shards × %d series", loaded.Shards(), loaded.Len())
	}
	q := make([]float32, 64)
	copy(q, mustSeries(t, sharded, 421))
	want, err := nn1(sharded, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nn1(loaded, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("loaded answered %+v, original %+v", got, want)
	}

	// Live boot from the sharded directory: the shard count carries over
	// and appended series stay searchable across a flush.
	lix, err := LoadLive(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	if lix.Stats().Shards != 4 {
		t.Fatalf("live boot kept %d shards, want 4", lix.Stats().Shards)
	}
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 5000 + float32(i)
	}
	pos, err := lix.Append(novel)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 1000 {
		t.Fatalf("append position %d, want 1000", pos)
	}
	if err := lix.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := nn1(lix, novel)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 1000 || m.Distance != 0 {
		t.Fatalf("appended series lost across sharded rebuild: %+v", m)
	}
}

// TestDTWWindowValidation: out-of-range window fractions error on both
// index kinds (the silent-clamp bug this release fixes).
func TestDTWWindowValidation(t *testing.T) {
	data := RandomWalk(300, 64, 51)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	lix, err := BuildLiveFlat(RandomWalk(300, 64, 52), 64, &Options{LeafCapacity: 64, SearchWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	q := make([]float32, 64)

	for _, window := range []float64{-0.5, -1e-9, 1.0000001, 42, math.NaN()} {
		if _, err := dtwNN(ix, q, window); err == nil {
			t.Errorf("Index.SearchDTW accepted window %v", window)
		} else if !strings.Contains(err.Error(), "window") {
			t.Errorf("Index.SearchDTW window %v: undescriptive error %q", window, err)
		}
		if _, err := dtwNN(lix, q, window); err == nil {
			t.Errorf("LiveIndex.SearchDTW accepted window %v", window)
		}
	}
	// The boundary fractions stay valid.
	for _, window := range []float64{0, 0.1, 1} {
		if _, err := dtwNN(ix, q, window); err != nil {
			t.Errorf("Index.SearchDTW rejected window %v: %v", window, err)
		}
		if _, err := dtwNN(lix, q, window); err != nil {
			t.Errorf("LiveIndex.SearchDTW rejected window %v: %v", window, err)
		}
	}
}

// TestAPIBoundaryEdgeCases pins the public query-validation contract:
// wrong-length queries, bad k values, empty batches, and empty live
// indexes all behaved correctly but nothing asserted it.
func TestAPIBoundaryEdgeCases(t *testing.T) {
	data := RandomWalk(200, 64, 61)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-length-search", func(t *testing.T) {
		if _, err := nn1(ix, make([]float32, 7)); err == nil {
			t.Error("Search accepted a wrong-length query")
		}
		if _, err := knn(ix, make([]float32, 7), 3); err == nil {
			t.Error("SearchKNN accepted a wrong-length query")
		}
		if _, err := dtwNN(ix, make([]float32, 7), 0.1); err == nil {
			t.Error("SearchDTW accepted a wrong-length query")
		}
	})

	t.Run("knn-k-range", func(t *testing.T) {
		q := make([]float32, 64)
		if _, err := knn(ix, q, -3); !errors.Is(err, ErrBadK) {
			t.Errorf("K=-3: err = %v, want ErrBadK", err)
		}
		// K=0 is the zero value of SearchRequest.K: 1-NN.
		if ms, err := knn(ix, q, 0); err != nil || len(ms) != 1 {
			t.Errorf("K=0 returned %d matches, err %v; want the nearest neighbor", len(ms), err)
		}
		// k beyond the collection clamps to Len(), not an error.
		ms, err := knn(ix, q, ix.Len()+100)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != ix.Len() {
			t.Errorf("SearchKNN(k>Len) returned %d matches, want %d", len(ms), ix.Len())
		}
	})

	t.Run("empty-live-search", func(t *testing.T) {
		lix, err := NewLive(64, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer lix.Close()
		q := make([]float32, 64)
		if _, err := nn1(lix, q); err == nil {
			t.Error("Search on an empty live index did not error")
		}
		if _, err := knn(lix, q, 3); err == nil {
			t.Error("SearchKNN on an empty live index did not error")
		}
		if _, err := dtwNN(lix, q, 0.1); err == nil {
			t.Error("SearchDTW on an empty live index did not error")
		}
	})
}
