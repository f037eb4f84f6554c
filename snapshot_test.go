package messi

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// snapshotTestIndex builds a deterministic index for round-trip tests.
func snapshotTestIndex(t *testing.T, normalize bool) (*Index, []float32) {
	t.Helper()
	data := RandomWalk(2500, 64, 21)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, SearchWorkers: 4, Normalize: normalize})
	if err != nil {
		t.Fatal(err)
	}
	return ix, data
}

// assertSameAnswers checks 1-NN, k-NN and DTW equivalence between two
// indexes across a set of queries.
func assertSameAnswers(t *testing.T, want, got *Index, queries [][]float32) {
	t.Helper()
	for qi, q := range queries {
		w1, err := nn1(want, q)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := nn1(got, q)
		if err != nil {
			t.Fatal(err)
		}
		if g1 != w1 {
			t.Fatalf("query %d 1-NN: loaded %+v, built %+v", qi, g1, w1)
		}
		wk, err := knn(want, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		gk, err := knn(got, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(gk) != len(wk) {
			t.Fatalf("query %d k-NN: loaded %d matches, built %d", qi, len(gk), len(wk))
		}
		for i := range wk {
			if gk[i] != wk[i] {
				t.Fatalf("query %d k-NN[%d]: loaded %+v, built %+v", qi, i, gk[i], wk[i])
			}
		}
		wd, err := dtwNN(want, q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := dtwNN(got, q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if gd != wd {
			t.Fatalf("query %d DTW: loaded %+v, built %+v", qi, gd, wd)
		}
	}
}

func snapshotQueries(count, length int) [][]float32 {
	flat := RandomWalk(count, length, 909)
	qs := make([][]float32, count)
	for i := range qs {
		qs[i] = flat[i*length : (i+1)*length]
	}
	return qs
}

// TestSaveLoadRoundTrip: Save → Load answers 1-NN/k-NN/DTW identically
// to the freshly built index, with and without normalization.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, normalize := range []bool{false, true} {
		name := "raw"
		if normalize {
			name = "normalized"
		}
		t.Run(name, func(t *testing.T) {
			ix, _ := snapshotTestIndex(t, normalize)
			path := filepath.Join(t.TempDir(), "ix.snap")
			if err := ix.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != ix.Len() || loaded.SeriesLen() != ix.SeriesLen() {
				t.Fatalf("loaded %d×%d, want %d×%d", loaded.Len(), loaded.SeriesLen(), ix.Len(), ix.SeriesLen())
			}
			if loaded.Stats() != ix.Stats() {
				t.Fatalf("loaded stats %+v, want %+v", loaded.Stats(), ix.Stats())
			}
			assertSameAnswers(t, ix, loaded, snapshotQueries(6, 64))

			// The loaded index works behind the persistent engine too.
			eng := loaded.NewEngine(&EngineOptions{PoolWorkers: 4})
			defer eng.Close()
			q := snapshotQueries(1, 64)[0]
			want, err := nn1(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn1(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("engine over loaded index answered %+v, want %+v", got, want)
			}
		})
	}
}

// TestSnapshotStream: WriteSnapshot/ReadSnapshot round-trips through any
// io.Writer/Reader pair.
func TestSnapshotStream(t *testing.T) {
	ix, _ := snapshotTestIndex(t, false)
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, ix, loaded, snapshotQueries(3, 64))
}

// TestSaveBytesIndependentOfIndexWorkers: the build is deterministic, so
// the snapshot of one collection holds the same bytes whichever
// IndexWorkers built it, sharded or not. Member files are compared (a
// sharded directory's manifest names them with a fresh per-save token).
func TestSaveBytesIndependentOfIndexWorkers(t *testing.T) {
	data := RandomWalk(5000, 64, 21)
	members := func(path string) [][]byte {
		t.Helper()
		files := []string{path}
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if fi.IsDir() {
			if files, err = filepath.Glob(filepath.Join(path, "shard-*.snap")); err != nil {
				t.Fatal(err)
			}
		}
		var out [][]byte
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	for _, shards := range []int{1, 3} {
		var want [][]byte
		for _, workers := range []int{1, 24} {
			ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 32, ChunkSize: 64, IndexWorkers: workers, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "ix.snap")
			if err := ix.Save(path); err != nil {
				t.Fatal(err)
			}
			got := members(path)
			if len(got) != shards {
				t.Fatalf("shards=%d: %d member files", shards, len(got))
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d: IndexWorkers=%d snapshot bytes differ from IndexWorkers=1", shards, workers)
			}
		}
	}
}

// TestLiveSaveLoad: a flushed LiveIndex saves a snapshot that LoadLive
// boots from, answering identically (1-NN/k-NN/DTW) and accepting new
// appends that future rebuilds fold in.
func TestLiveSaveLoad(t *testing.T) {
	data := RandomWalk(1200, 64, 31)
	lix, err := BuildLiveFlat(data, 64, &Options{LeafCapacity: 64, SearchWorkers: 4},
		&LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	extra := RandomWalk(40, 64, 32)
	for i := 0; i < 40; i++ {
		if _, err := lix.Append(extra[i*64 : (i+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := lix.Save(path); err != nil {
		t.Fatal(err)
	}
	if st := lix.Stats(); st.DeltaSeries != 0 || st.BaseSeries != 1240 {
		t.Fatalf("post-save stats %+v: Save must flush first", st)
	}

	loaded, err := LoadLive(path, &Options{SearchWorkers: 4},
		&LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != lix.Len() {
		t.Fatalf("loaded live index has %d series, want %d", loaded.Len(), lix.Len())
	}
	if st := loaded.Stats(); st.Generation != 1 || st.BaseSeries != 1240 {
		t.Fatalf("loaded live stats %+v", st)
	}
	for qi, q := range snapshotQueries(5, 64) {
		want, err := nn1(lix, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nn1(loaded, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d 1-NN: loaded live %+v, original %+v", qi, got, want)
		}
		wantK, err := knn(lix, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := knn(loaded, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantK {
			if gotK[i] != wantK[i] {
				t.Fatalf("query %d k-NN[%d]: loaded live %+v, original %+v", qi, i, gotK[i], wantK[i])
			}
		}
		wantD, err := dtwNN(lix, q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := dtwNN(loaded, q, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if gotD != wantD {
			t.Fatalf("query %d DTW: loaded live %+v, original %+v", qi, gotD, wantD)
		}
	}

	// The restored live index keeps ingesting: appended series are
	// searchable and a flush folds them into generation 2.
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 4000 + float32(i)
	}
	pos, err := loaded.Append(novel)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 1240 {
		t.Fatalf("append position %d, want 1240", pos)
	}
	m, err := nn1(loaded, novel)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != pos || m.Distance != 0 {
		t.Fatalf("appended series not found after LoadLive: %+v", m)
	}
	if err := loaded.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := loaded.Stats(); st.Generation != 2 || st.BaseSeries != 1241 {
		t.Fatalf("post-flush stats %+v", st)
	}
	m, err = nn1(loaded, novel)
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != pos {
		t.Fatalf("appended series lost across post-load rebuild: %+v", m)
	}
}

// TestLiveAutoSnapshot: with SnapshotPath set, Flush persists the merged
// generation and Close writes a best-effort snapshot.
func TestLiveAutoSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.snap")
	data := RandomWalk(600, 32, 41)
	lix, err := BuildLiveFlat(data, 32, &Options{LeafCapacity: 32, SearchWorkers: 2},
		&LiveOptions{RebuildThreshold: 1 << 30, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	novel := make([]float32, 32)
	for i := range novel {
		novel[i] = -300 - float32(i)
	}
	if _, err := lix.Append(novel); err != nil {
		t.Fatal(err)
	}
	if err := lix.Flush(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLive(path, nil, nil)
	if err != nil {
		t.Fatalf("flush did not leave a loadable snapshot: %v", err)
	}
	if loaded.Len() != 601 {
		t.Fatalf("flush snapshot has %d series, want 601", loaded.Len())
	}
	loaded.Close()

	// Close rewrites the snapshot (best-effort) with the current
	// generation; remove the flush-time file to observe it.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	lix.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close did not write a snapshot: %v", err)
	}
}

// TestLiveSaveEmpty: an empty live index has no generation to persist.
func TestLiveSaveEmpty(t *testing.T) {
	lix, err := NewLive(32, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	if err := lix.Save(filepath.Join(t.TempDir(), "x.snap")); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("err = %v, want ErrNoGeneration", err)
	}
}

// TestLoadRejectsDatasetFile: feeding a dataset file (different magic) to
// Load must fail cleanly.
func TestLoadRejectsDatasetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := WriteSeriesFile(path, RandomWalk(10, 32, 1), 32); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a dataset file")
	}
}
