package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// listStrays returns every temp/shard stray in dir that a failed save
// must not leave behind.
func listStrays(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var strays []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			strays = append(strays, e.Name())
		}
	}
	return strays
}

// A failed snapshot write — at any of the write, sync, or rename
// instants — must surface the underlying error and leave no temp file.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	ix := buildIndex(t, 200, 32, 16)
	for _, point := range []string{
		"persist.writefile.write",
		"persist.writefile.sync",
		"persist.writefile.rename",
	} {
		t.Run(point, func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			dir := t.TempDir()
			path := filepath.Join(dir, "ix.snap")
			if err := fault.Arm(point, fault.Spec{Action: fault.Error}); err != nil {
				t.Fatal(err)
			}
			err := writeFile(path, ix, false)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("writeFile = %v, want the injected error surfaced", err)
			}
			if strays := listStrays(t, dir); len(strays) != 0 {
				t.Fatalf("failed save left temp strays: %v", strays)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("failed save left a target file: %v", err)
			}
			// A retry with the fault gone succeeds into the same path.
			if err := writeFile(path, ix, false); err != nil {
				t.Fatalf("retry: %v", err)
			}
		})
	}
}

// A sharded save that dies before the manifest lands must clean up its
// own shard files and leave a previous snapshot fully loadable.
func TestShardedSaveAbortCleansUp(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	x := buildSharded(t, 300, 3)
	dir := t.TempDir()
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []string{"persist.writefile.write", "persist.manifest.write"} {
		if err := fault.Arm(point, fault.Spec{Action: fault.Error}); err != nil {
			t.Fatal(err)
		}
		if err := WriteDir(dir, x, false); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: WriteDir = %v, want injected error", point, err)
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("%s: aborted save changed directory contents: %d files, want %d", point, len(after), len(before))
		}
		loaded, _, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: previous snapshot unreadable after aborted save: %v", point, err)
		}
		if loaded.Len() != x.Len() {
			t.Fatalf("%s: previous snapshot lost series: %d, want %d", point, loaded.Len(), x.Len())
		}
	}
}

// Strays from a crashed save (shard temp files that never reached
// rename) are removed by the next successful save's sweep.
func TestSweepRemovesCrashedTempStrays(t *testing.T) {
	x := buildSharded(t, 300, 2)
	dir := t.TempDir()
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	// Plant what a kill mid-writeFile leaves behind: a half-written
	// shard temp and an orphaned old shard file.
	stray1 := filepath.Join(dir, "shard-0001-deadbeef.snap.tmp123")
	stray2 := filepath.Join(dir, "shard-0001-deadbeef.snap")
	for _, s := range []string{stray1, stray2} {
		if err := os.WriteFile(s, []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteDir(dir, x, false); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{stray1, stray2} {
		if _, err := os.Stat(s); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("sweep left stray %s", filepath.Base(s))
		}
	}
	if _, _, err := ReadDir(dir); err != nil {
		t.Fatal(err)
	}
}
