//go:build !unix

package persist

// mapFile reports that memory-mapped loading is unavailable on this
// platform; readFile reads the file whole instead.
func mapFile(path string) ([]byte, bool) { return nil, false }

// unmap is never reached: mapFile maps nothing here.
func unmap(b []byte) {}
