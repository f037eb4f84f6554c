package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/series"
	"repro/internal/shard"
)

func buildSharded(t *testing.T, n, shards int) *shard.Index {
	t.Helper()
	col, err := dataset.Generate(dataset.RandomWalk, n, 32, 21)
	if err != nil {
		t.Fatal(err)
	}
	x, err := shard.Build(col, shards, core.Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestShardedRoundTrip: snapshot → manifest → load reproduces the sharded
// index bitwise — every query answers what brute force does over the
// original series.
func TestShardedRoundTrip(t *testing.T) {
	x := buildSharded(t, 500, 4)
	dir := filepath.Join(t.TempDir(), "sharded.snapdir")
	if err := WriteDir(dir, x, true); err != nil {
		t.Fatal(err)
	}
	if !Present(dir) {
		t.Fatal("written directory not recognized as a snapshot")
	}
	loaded, normalize, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !normalize {
		t.Fatal("normalize flag lost in round trip")
	}
	if loaded.NumShards() != 4 || loaded.Len() != x.Len() || loaded.SeriesLen() != x.SeriesLen() {
		t.Fatalf("loaded shape %d shards %d×%d, want 4 shards %d×%d",
			loaded.NumShards(), loaded.Len(), loaded.SeriesLen(), x.Len(), x.SeriesLen())
	}
	all := make([]float32, 0, x.Len()*x.SeriesLen())
	for p := 0; p < x.Len(); p++ {
		all = append(all, x.At(p)...)
	}
	data, err := series.NewCollection(all, x.SeriesLen())
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewUnpooled(loaded.Opts(), engine.Options{})
	for qi := 0; qi < 20; qi++ {
		req := core.Request{Query: x.At(qi * 17)}
		got, err := e.Do(engine.View{Base: loaded}, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(t, data, req); got.Matches[0] != want[0] {
			t.Fatalf("query %d: loaded answered %+v, brute force %+v", qi, got, want)
		}
	}
}

// TestOneShardDir: an unsharded index is a directory of one member plus
// the manifest, and the member holds exactly the bytes write produces.
func TestOneShardDir(t *testing.T) {
	x := buildSharded(t, 300, 1)
	dir := filepath.Join(t.TempDir(), "one.snapdir")
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	members, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(members) != 1 {
		t.Fatalf("members %v (err %v), want one", members, err)
	}
	got, err := os.ReadFile(members[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshotBytes(t, x.Shard(0), false); !bytes.Equal(got, want) {
		t.Fatal("member file differs from the in-memory encoding")
	}
	mf, err := os.Stat(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if Size(dir) != int64(len(got))+mf.Size() {
		t.Fatalf("Size(dir) = %d, want member + manifest bytes", Size(dir))
	}
	loaded, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 1 || loaded.Len() != 300 {
		t.Fatalf("loaded %d shards × %d series", loaded.NumShards(), loaded.Len())
	}
}

// TestReadDirRejectsFiles: a bare member file — the single-file snapshot
// of earlier releases — fails with ErrVersion and says to regenerate;
// any other file fails with ErrBadMagic; a missing path fails too.
func TestReadDirRejectsFiles(t *testing.T) {
	dir := t.TempDir()
	bare := filepath.Join(dir, "bare.snap")
	if err := os.WriteFile(bare, snapshotBytes(t, buildIndex(t, 200, 32, 16), false), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadDir(bare)
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("bare member file: %v, want ErrVersion saying regenerate", err)
	}
	other := filepath.Join(dir, "other.bin")
	if err := os.WriteFile(other, []byte("MESSIDS1 not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDir(other); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("other file: %v, want ErrBadMagic", err)
	}
	if _, _, err := ReadDir(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing path: %v, want fs.ErrNotExist", err)
	}
}

// TestPresent: a missing path and a directory with no manifest (what a
// failed first save leaves) hold no snapshot; a snapshot directory and
// any file do, so a bare file reaches ReadDir's rejection.
func TestPresent(t *testing.T) {
	dir := t.TempDir()
	if Present(filepath.Join(dir, "missing")) {
		t.Error("missing path reported present")
	}
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if Present(empty) {
		t.Error("directory with no manifest reported present")
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if !Present(file) {
		t.Error("bare file reported absent")
	}
	snap := filepath.Join(dir, "snap")
	if err := WriteDir(snap, buildSharded(t, 50, 2), false); err != nil {
		t.Fatal(err)
	}
	if !Present(snap) {
		t.Error("snapshot directory reported absent")
	}
}

// TestShardedDirWithEmptyShards: count < shards leaves empty file entries
// that round-trip cleanly.
func TestShardedDirWithEmptyShards(t *testing.T) {
	x := buildSharded(t, 3, 8)
	dir := filepath.Join(t.TempDir(), "tiny.snapdir")
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 || loaded.NumShards() != 8 {
		t.Fatalf("loaded %d series across %d shards", loaded.Len(), loaded.NumShards())
	}
}

// TestManifestCorruption: every corruption is caught with a typed error.
func TestManifestCorruption(t *testing.T) {
	x := buildSharded(t, 200, 2)
	dir := filepath.Join(t.TempDir(), "corrupt.snapdir")
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)
	good, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte) []byte, want error) {
		t.Helper()
		if err := os.WriteFile(mpath, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(mpath, good, 0o644)
		_, _, err := ReadDir(dir)
		if !errors.Is(err, want) {
			t.Fatalf("corrupted manifest: got %v, want %v", err, want)
		}
	}

	corrupt(t, func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic)
	corrupt(t, func(b []byte) []byte { return b[:10] }, ErrTruncated)
	corrupt(t, func(b []byte) []byte { b[20] ^= 0xff; return b }, ErrChecksum)
	corrupt(t, func(b []byte) []byte { return append(b, 0) }, ErrCorrupt)

	// A shard file mutilated underneath an intact manifest.
	m, err := ParseManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, m.Files[1])
	sgood, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sgood...)
	bad[HeaderSize+8] ^= 0xff
	if err := os.WriteFile(spath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDir(dir); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted shard file: got %v, want %v", err, ErrChecksum)
	}
}

// TestManifestEscapingNames: a manifest naming files outside its own
// directory — or aliasing one file into two shards, or the reserved
// manifest name — is rejected before any file is opened.
func TestManifestEscapingNames(t *testing.T) {
	for _, name := range []string{"../evil.snap", "/etc/passwd", "a/b.snap", "..", ManifestName} {
		m := Manifest{Version: ManifestVersion, Shards: 1, SeriesLen: 32, SeriesCount: 10, Files: []string{name}}
		if _, err := EncodeManifest(m); err == nil {
			t.Errorf("manifest with file name %q encoded without error", name)
		}
	}
	dup := Manifest{Version: ManifestVersion, Shards: 2, SeriesLen: 32, SeriesCount: 2,
		Files: []string{"a.snap", "a.snap"}}
	if _, err := EncodeManifest(dup); err == nil {
		t.Error("manifest aliasing one file into two shards encoded without error")
	}
}

// TestShardedResave: saving again over an existing snapshot directory
// never touches the files the current manifest names (per-save tokens),
// stays loadable, and sweeps the superseded files afterwards.
func TestShardedResave(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "resave.snapdir")
	first := buildSharded(t, 100, 2)
	if err := WriteDir(dir, first, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}

	second := buildSharded(t, 300, 2)
	if err := WriteDir(dir, second, false); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 300 {
		t.Fatalf("re-saved directory loads %d series, want 300", loaded.Len())
	}
	// New file names differ from the old ones, and the old ones are gone.
	raw, err = os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	for s := range m1.Files {
		if m1.Files[s] == m2.Files[s] {
			t.Fatalf("re-save reused shard file name %q", m1.Files[s])
		}
		if _, err := os.Stat(filepath.Join(dir, m1.Files[s])); !os.IsNotExist(err) {
			t.Errorf("superseded shard file %q not swept (err %v)", m1.Files[s], err)
		}
	}
}

// TestParseManifestRejects covers decoder validation beyond the checksum.
func TestParseManifestRejects(t *testing.T) {
	encode := func(payload []byte) []byte {
		out := append([]byte(ManifestMagic), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(out[8:12], uint32(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	}
	cases := []struct {
		name    string
		payload string
		want    error
	}{
		{"not JSON", `{nope`, ErrCorrupt},
		{"wrong version", `{"version":9,"shards":1,"series_len":32,"series_count":1,"files":[""]}`, ErrVersion},
		{"zero shards", `{"version":1,"shards":0,"series_len":32,"series_count":1,"files":[]}`, ErrCorrupt},
		{"file count mismatch", `{"version":1,"shards":2,"series_len":32,"series_count":1,"files":["a"]}`, ErrCorrupt},
		{"absurd count", `{"version":1,"shards":1,"series_len":32,"series_count":99999999999,"files":["a"]}`, ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(encode([]byte(tc.payload))); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestConcurrentShardedSaves: racing saves into one directory are
// serialized — the directory always ends up loadable, with the manifest
// naming files that exist.
func TestConcurrentShardedSaves(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "race.snapdir")
	a := buildSharded(t, 100, 2)
	b := buildSharded(t, 300, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		x := a
		if i%2 == 1 {
			x = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := WriteDir(dir, x, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	loaded, _, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("directory unloadable after racing saves: %v", err)
	}
	if n := loaded.Len(); n != 100 && n != 300 {
		t.Fatalf("loaded %d series, want one save's 100 or 300", n)
	}
}
