//go:build !unix

package persist

import "os"

// mmapFile reports that memory-mapped loading is unavailable on this
// platform; readFile falls back to streaming reads.
func mmapFile(f *os.File) ([]byte, bool) { return nil, false }
