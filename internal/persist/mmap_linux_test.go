package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedLoadUnmaps: a member that fails to decode does not keep its
// file-sized mapping for the life of the process.
func TestFailedLoadUnmaps(t *testing.T) {
	raw := snapshotBytes(t, buildIndex(t, 400, 32, 16), false)
	raw[len(raw)-5] ^= 0x40 // inside the tree section: mapped, then rejected
	path := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFile(path); err == nil {
		t.Fatal("corrupt member loaded")
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(maps), path) {
		t.Fatalf("failed load left %s mapped", path)
	}
}
