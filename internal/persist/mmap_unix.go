//go:build unix

package persist

import (
	"os"
	"syscall"
)

// mapFile maps the whole file at path copy-on-write. A mapping that
// backs a loaded index is intentionally never unmapped: the index aliases
// it for its whole lifetime (a process typically loads one snapshot at
// boot). MAP_PRIVATE means neither later in-place writes through the
// index (there are none today) nor the mapping itself can modify the
// file, and writeFile replaces members by rename (fresh inode), so an
// existing mapping never observes a rewrite.
func mapFile(path string) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() <= 0 || fi.Size() != int64(int(fi.Size())) {
		return nil, false
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, false
	}
	return b, true
}

// unmap releases a mapping from mapFile that no index aliases.
func unmap(b []byte) { syscall.Munmap(b) }
