package messi

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/persist"
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

// members reads the member files of the snapshot directory at path, in
// shard order.
func members(t *testing.T, path string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(path, "shard-*.snap"))
	if err != nil {
		t.Fatal(err)
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

// TestSaveBytesIndependentOfIndexWorkers: the build is deterministic, so
// the snapshot of one collection holds the same bytes whichever
// IndexWorkers built it, sharded or not. Member files are compared (the
// manifest names them with a fresh per-save token).
func TestSaveBytesIndependentOfIndexWorkers(t *testing.T) {
	data := RandomWalk(5000, 64, 21)
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
			got := members(t, path)
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

// dirFiles reads every file of the snapshot directory at path by name.
func dirFiles(t *testing.T, path string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestLiveAutoSnapshot: Save is the only snapshot writer. A Flush that
// merges series appended after a Save, and the Close after it, leave the
// directory Save wrote as it was and write nothing beside it, so LoadLive
// restores the saved series only.
func TestLiveAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "auto.snap")
	lix, err := BuildLiveFlat(RandomWalk(600, 32, 41), 32, &Options{LeafCapacity: 32, SearchWorkers: 2}, threshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if err := lix.Save(path); err != nil {
		t.Fatal(err)
	}
	saved := dirFiles(t, path)
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
	if st := lix.Stats(); st.Generation != 2 || st.BaseSeries != 601 {
		t.Fatalf("post-flush stats %+v", st)
	}
	for _, step := range []string{"Flush", "Close"} {
		if step == "Close" {
			if err := lix.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got := dirFiles(t, path); !reflect.DeepEqual(got, saved) {
			t.Fatalf("%s rewrote the snapshot Save wrote", step)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("after %s the directory holds %v (err %v), want only the saved snapshot", step, entries, err)
		}
	}
	loaded, err := LoadLive(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 600 {
		t.Fatalf("snapshot holds %d series, want the 600 Save wrote", loaded.Len())
	}
}

// TestCloseWritesAGenerationOnce: a generation reaches disk once, by Save.
// The MANIFEST Save wrote stays byte-identical across Close, through a
// second Close too, and also when a background rebuild built a newer
// generation after the Save.
func TestCloseWritesAGenerationOnce(t *testing.T) {
	manifest := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(path, persist.ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	data := RandomWalk(300, 32, 53)
	opts := &Options{LeafCapacity: 32, SearchWorkers: 2}

	path := filepath.Join(t.TempDir(), "snap")
	lix, err := BuildLiveFlat(data, 32, opts, threshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lix.AppendBatch(rowsOf(RandomWalk(20, 32, 54), 32)); err != nil {
		t.Fatal(err)
	}
	if err := lix.Save(path); err != nil {
		t.Fatal(err)
	}
	saved := manifest(path)
	for i := 1; i <= 2; i++ {
		if err := lix.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
		if got := manifest(path); !bytes.Equal(got, saved) {
			t.Fatalf("Close %d rewrote the generation Save wrote:\n%q\n%q", i, got, saved)
		}
	}

	path = filepath.Join(t.TempDir(), "snap")
	lix, err = BuildLiveFlat(data, 32, opts, threshold(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := lix.Save(path); err != nil {
		t.Fatal(err)
	}
	saved = manifest(path)
	// 100 series past a threshold of 50 start a background rebuild, which
	// Close waits for.
	if _, err := lix.AppendBatch(rowsOf(RandomWalk(100, 32, 55), 32)); err != nil {
		t.Fatal(err)
	}
	if err := lix.Close(); err != nil {
		t.Fatal(err)
	}
	if st := lix.Stats(); st.Generation != 2 || st.BaseSeries != 400 {
		t.Fatalf("the background rebuild did not land before Close returned: %+v", st)
	}
	if !bytes.Equal(manifest(path), saved) {
		t.Fatal("Close wrote the generation a background rebuild built after Save")
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 300 {
		t.Fatalf("snapshot holds %d series, want the 300 Save wrote", loaded.Len())
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

// TestLoadRejectsBareSnapshotFile: a bare member file — what Save wrote
// for an unsharded index before every snapshot became a directory — is
// refused by Load and LoadLive alike with persist.ErrVersion and a
// message saying to regenerate it, never loaded.
func TestLoadRejectsBareSnapshotFile(t *testing.T) {
	ix, _ := snapshotTestIndex(t, false)
	dir := filepath.Join(t.TempDir(), "ix.snap")
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	m := members(t, dir)
	if len(m) != 1 {
		t.Fatalf("unsharded save wrote %d member files, want 1", len(m))
	}
	bare := filepath.Join(t.TempDir(), "bare.snap")
	if err := os.WriteFile(bare, m[0], 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, persist.ErrVersion) || !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("%s of a bare member file: %v, want persist.ErrVersion saying regenerate", what, err)
		}
	}
	_, err := Load(bare)
	check("Load", err)
	lix, err := LoadLive(bare, nil, nil)
	if err == nil {
		lix.Close()
	}
	check("LoadLive", err)
}

// TestRefusedBootInstallsNoGauges: a LoadLive that the WAL refuses (the
// log starts past the snapshot) leaves no gauge behind on its registry,
// so the next index opened on that registry exposes its own view.
func TestRefusedBootInstallsNoGauges(t *testing.T) {
	const length = 32
	dir := t.TempDir()
	old, cur, walDir := filepath.Join(dir, "old.snap"), filepath.Join(dir, "cur.snap"), filepath.Join(dir, "wal")
	lix, err := BuildLive(walk(350, length, 61), smallOpts(1), &LiveOptions{RebuildThreshold: 1 << 30, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := lix.Save(old); err != nil {
		t.Fatal(err)
	}
	if _, err := lix.AppendBatch(walk(50, length, 62)); err != nil {
		t.Fatal(err)
	}
	// This save covers the whole log; the next append starts it at 400.
	if err := lix.Save(cur); err != nil {
		t.Fatal(err)
	}
	if _, err := lix.AppendBatch(walk(1, length, 63)); err != nil {
		t.Fatal(err)
	}
	if err := lix.Close(); err != nil {
		t.Fatal(err)
	}

	reg := NewMetrics()
	lopts := &LiveOptions{RebuildThreshold: 1 << 30, WALDir: walDir, Engine: EngineOptions{Metrics: reg}}
	if refused, err := LoadLive(old, nil, lopts); err == nil {
		refused.Close()
		t.Fatal("LoadLive accepted a wal that starts past its snapshot")
	}
	ix, err := LoadLive(cur, nil, lopts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for name, want := range map[string]string{
		"messi_live_base_series":  "400",
		"messi_live_delta_series": "1",
		"messi_live_generation":   "1",
		"messi_engine_shards":     "1",
	} {
		if got := sample(t, reg, name); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
}

// TestSnapshotMetrics: a live index records its snapshot I/O on its own
// registry. One Save is observed once on the saving index's registry and
// one LoadLive once on the registry its options name, whatever the shard
// count, and both byte counters report the snapshot directory's on-disk
// size. A save failing at the manifest and a load of a corrupt manifest
// each count exactly one failure.
func TestSnapshotMetrics(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	data := RandomWalk(1000, 64, 51)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			saveReg, loadReg := NewMetrics(), NewMetrics()
			saveOpts := &LiveOptions{RebuildThreshold: 1 << 30, Engine: EngineOptions{Metrics: saveReg}}
			loadOpts := &LiveOptions{RebuildThreshold: 1 << 30, Engine: EngineOptions{Metrics: loadReg}}
			saveSeconds := saveReg.Histogram("messi_snapshot_save_seconds", "")
			saveBytes := saveReg.Counter("messi_snapshot_save_bytes_total", "")
			saveFailures := saveReg.Counter("messi_snapshot_save_failures_total", "")
			loadSeconds := loadReg.Histogram("messi_snapshot_load_seconds", "")
			loadBytes := loadReg.Counter("messi_snapshot_load_bytes_total", "")
			loadFailures := loadReg.Counter("messi_snapshot_load_failures_total", "")

			lix, err := BuildLiveFlat(data, 64, &Options{LeafCapacity: 64, Shards: shards}, saveOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer lix.Close()
			dir := filepath.Join(t.TempDir(), "ix.snap")
			if err := lix.Save(dir); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadLive(dir, nil, loadOpts)
			if err != nil {
				t.Fatal(err)
			}
			loaded.Close()
			size := persist.Size(dir)
			var sum int64
			for _, b := range dirFiles(t, dir) {
				sum += int64(len(b))
			}
			if size != sum || size == 0 {
				t.Fatalf("persist.Size %d, files hold %d bytes", size, sum)
			}
			if n, m := saveSeconds.Count(), loadSeconds.Count(); n != 1 || m != 1 {
				t.Errorf("save/load observed %d/%d times, want 1/1", n, m)
			}
			if sb, lb := saveBytes.Value(), loadBytes.Value(); sb != size || lb != size {
				t.Errorf("save/load bytes %d/%d, want the directory's %d", sb, lb, size)
			}
			if n, m := saveReg.Histogram("messi_snapshot_load_seconds", "").Count(), loadReg.Histogram("messi_snapshot_save_seconds", "").Count(); n != 0 || m != 0 {
				t.Errorf("the saving registry observed %d loads and the loading one %d saves, want 0/0", n, m)
			}

			if err := fault.Arm("persist.manifest.write", fault.Spec{Action: fault.Error}); err != nil {
				t.Fatal(err)
			}
			if err := lix.Save(dir); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("save with the manifest failpoint armed: %v", err)
			}
			fault.DisarmAll()
			if f := saveFailures.Value(); f != 1 {
				t.Errorf("save failures %d after one failed save, want 1", f)
			}
			if err := os.WriteFile(filepath.Join(dir, persist.ManifestName), []byte("not a manifest"), 0o644); err != nil {
				t.Fatal(err)
			}
			if loaded, err := LoadLive(dir, nil, loadOpts); err == nil {
				loaded.Close()
				t.Fatal("LoadLive accepted a corrupt manifest")
			}
			if f := loadFailures.Value(); f != 1 {
				t.Errorf("load failures %d after one failed load, want 1", f)
			}
			if n, m := saveSeconds.Count(), loadSeconds.Count(); n != 1 || m != 1 {
				t.Errorf("failures observed as successes: save/load counts %d/%d, want 1/1", n, m)
			}
		})
	}
}
