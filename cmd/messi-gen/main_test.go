package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	messi "repro"
	"repro/internal/dataset"
)

// mustSeries fetches an indexed series, failing the test on range errors.
func mustSeries(t *testing.T, ix *messi.Index, pos int) []float32 {
	t.Helper()
	s, err := ix.Series(pos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunWritesDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data.bin")
	var buf strings.Builder
	err := run([]string{"-kind", "random", "-count", "200", "-length", "64", "-out", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 200 series × 64 points") {
		t.Fatalf("unexpected output: %q", buf.String())
	}
	col, err := dataset.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if col.Count() != 200 || col.Length != 64 {
		t.Fatalf("file shape %d×%d, want 200×64", col.Count(), col.Length)
	}
}

func TestRunDefaultLengthPerKind(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sald.bin")
	var buf strings.Builder
	if err := run([]string{"-kind", "sald", "-count", "10", "-out", out}, &buf); err != nil {
		t.Fatal(err)
	}
	col, err := dataset.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if col.Length != 128 {
		t.Fatalf("sald default length %d, want 128", col.Length)
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-count", "10"}, &buf); err == nil {
		t.Error("missing -out and -snapshot did not error")
	}
	out := filepath.Join(t.TempDir(), "x.bin")
	if err := run([]string{"-kind", "nope", "-count", "10", "-out", out}, &buf); err == nil {
		t.Error("unknown kind did not error")
	}
}

// TestRunEmitsSnapshot: -snapshot writes a ready-to-serve snapshot that
// Load restores to the same index a fresh build over -out produces.
func TestRunEmitsSnapshot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "data.bin")
	snap := filepath.Join(dir, "index.snap")
	var buf strings.Builder
	err := run([]string{"-kind", "random", "-count", "500", "-length", "64",
		"-out", out, "-snapshot", snap, "-leaf", "64"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "index snapshot of 500 series") {
		t.Fatalf("unexpected output: %q", buf.String())
	}

	loaded, err := messi.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	built, err := messi.BuildFromFile(out, &messi.Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != built.Len() || loaded.Stats() != built.Stats() {
		t.Fatalf("snapshot stats %+v, rebuilt stats %+v", loaded.Stats(), built.Stats())
	}
	q := make([]float32, 64)
	copy(q, mustSeries(t, built, 123))
	wantRes, err := built.Do(context.Background(), messi.SearchRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := loaded.Do(context.Background(), messi.SearchRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gotRes.Best(), wantRes.Best(); got != want {
		t.Fatalf("snapshot answered %+v, rebuild %+v", got, want)
	}
}

// TestRunSnapshotOnly: -snapshot without -out writes only the snapshot.
func TestRunSnapshotOnly(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "only.snap")
	var buf strings.Builder
	if err := run([]string{"-kind", "random", "-count", "100", "-length", "32", "-snapshot", snap}, &buf); err != nil {
		t.Fatal(err)
	}
	ix, err := messi.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 || ix.SeriesLen() != 32 {
		t.Fatalf("snapshot shape %d×%d, want 100×32", ix.Len(), ix.SeriesLen())
	}
}

// TestRunSnapshotReportsDirectorySize: the printed size is the snapshot
// directory's file bytes (1.2 MB of series here), not a directory inode.
func TestRunSnapshotReportsDirectorySize(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sized.snap")
	var buf strings.Builder
	if err := run([]string{"-kind", "random", "-count", "5000", "-length", "64", "-snapshot", snap}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(1 MB)") {
		t.Fatalf("output %q does not report the directory's 1 MB", buf.String())
	}
}
