package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isax"
	"repro/internal/series"
	"repro/internal/tree"
)

// Failpoints in the snapshot write path, armed only by crash tests.
// They fire at the instants where a real disk failure (ENOSPC, a dying
// device) or a kill would interrupt a save: mid-write, at fsync, and
// at the final rename.
var (
	fpWrite  = fault.Register("persist.writefile.write")
	fpSync   = fault.Register("persist.writefile.sync")
	fpRename = fault.Register("persist.writefile.rename")
)

// Magic identifies a MESSI snapshot member file (distinct from the
// dataset file magic "MESSIDS1").
const Magic = "MESSIIX1"

// Version is the current snapshot format version (what write produces).
const Version = 2

// HeaderSize is the fixed header length; the series block starts here.
const HeaderSize = 64

// flagNormalize records that the indexed data was z-normalized at build
// time (so queries must be z-normalized too).
const flagNormalize = 1 << 0

// maxPoints bounds count*length claimed by a header (32 GiB of float32s),
// mirroring the dataset reader's guard against absurd allocations.
const maxPoints = 1 << 33

// maxTreeBytes bounds the tree section a header may claim.
const maxTreeBytes = 1 << 31

// maxSeriesLen bounds the points per series a header may claim (16M
// points per series is far beyond anything the index is used with, and
// keeps count*length arithmetic comfortably inside uint64).
const maxSeriesLen = 1 << 24

// Typed failure modes of snapshot loading. Every decode error wraps one
// of these (test with errors.Is).
var (
	ErrBadMagic       = errors.New("persist: not a MESSI index snapshot (bad magic)")
	ErrVersion        = errors.New("persist: unsupported snapshot version")
	ErrTruncated      = errors.New("persist: truncated snapshot")
	ErrChecksum       = errors.New("persist: snapshot checksum mismatch")
	ErrSchemaMismatch = errors.New("persist: snapshot series length/segments mismatch")
	ErrCorrupt        = errors.New("persist: corrupt snapshot")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the in-memory []float32 and the
// on-disk little-endian series block are byte-identical, so the block can
// be written from or loaded as the float storage directly — the
// no-per-series-work load the format is laid out for.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// blockBytes returns f as a little-endian series block: a view of f on
// little-endian hosts, a converted copy elsewhere.
func blockBytes(f []float32) []byte {
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
	}
	b := make([]byte, 4*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// blockFloats returns the little-endian series block b as float32s: a
// view of b on little-endian hosts when b is 4-byte aligned (a mapped
// file always is), a converted copy otherwise.
func blockFloats(b []byte) []float32 {
	if p := unsafe.SliceData(b); hostLittleEndian && uintptr(unsafe.Pointer(p))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(p)), len(b)/4)
	}
	f := make([]float32, len(b)/4)
	for i := range f {
		f[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return f
}

// Header is the decoded fixed-size snapshot header.
type Header struct {
	Version      uint32
	Normalize    bool
	Segments     int
	CardBits     int
	LeafCapacity int
	SeriesLen    int
	SeriesCount  int
	TreeBytes    int64
	DataOffset   int64
}

// encode renders the header into its fixed 64-byte form, including the
// trailing CRC.
func (h *Header) encode() [HeaderSize]byte {
	var b [HeaderSize]byte
	copy(b[0:8], Magic)
	binary.LittleEndian.PutUint32(b[8:12], h.Version)
	var flags uint32
	if h.Normalize {
		flags |= flagNormalize
	}
	binary.LittleEndian.PutUint32(b[12:16], flags)
	binary.LittleEndian.PutUint32(b[16:20], uint32(h.Segments))
	binary.LittleEndian.PutUint32(b[20:24], uint32(h.CardBits))
	binary.LittleEndian.PutUint32(b[24:28], uint32(h.LeafCapacity))
	binary.LittleEndian.PutUint32(b[28:32], uint32(h.SeriesLen))
	binary.LittleEndian.PutUint64(b[32:40], uint64(h.SeriesCount))
	binary.LittleEndian.PutUint64(b[40:48], uint64(h.TreeBytes))
	binary.LittleEndian.PutUint64(b[48:56], uint64(h.DataOffset))
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], castagnoli))
	return b
}

// ParseHeader decodes and validates a snapshot header. It returns a
// typed error (ErrTruncated, ErrBadMagic, ErrVersion, ErrChecksum,
// ErrSchemaMismatch, ErrCorrupt) describing the first problem found, and
// never panics on arbitrary input.
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: header is %d bytes, want %d", ErrTruncated, len(b), HeaderSize)
	}
	b = b[:HeaderSize]
	if string(b[0:8]) != Magic {
		return h, fmt.Errorf("%w: %q", ErrBadMagic, b[0:8])
	}
	h.Version = binary.LittleEndian.Uint32(b[8:12])
	if h.Version != Version {
		return h, fmt.Errorf("%w: file version %d, this reader understands only %d; regenerate the file (messi-gen -snapshot, or a fresh Save)", ErrVersion, h.Version, Version)
	}
	if got, want := crc32.Checksum(b[0:60], castagnoli), binary.LittleEndian.Uint32(b[60:64]); got != want {
		return h, fmt.Errorf("%w: header CRC %08x, stored %08x", ErrChecksum, got, want)
	}
	flags := binary.LittleEndian.Uint32(b[12:16])
	if flags&^uint32(flagNormalize) != 0 {
		return h, fmt.Errorf("%w: unknown flags %#x", ErrVersion, flags)
	}
	h.Normalize = flags&flagNormalize != 0
	h.Segments = int(binary.LittleEndian.Uint32(b[16:20]))
	h.CardBits = int(binary.LittleEndian.Uint32(b[20:24]))
	h.LeafCapacity = int(binary.LittleEndian.Uint32(b[24:28]))
	h.SeriesLen = int(binary.LittleEndian.Uint32(b[28:32]))
	h.SeriesCount = int(binary.LittleEndian.Uint64(b[32:40]))
	h.TreeBytes = int64(binary.LittleEndian.Uint64(b[40:48]))
	h.DataOffset = int64(binary.LittleEndian.Uint64(b[48:56]))

	if h.Segments < 1 || h.Segments > isax.MaxSegments || h.CardBits < 1 || h.CardBits > isax.MaxCardBits {
		return h, fmt.Errorf("%w: %d segments × %d cardinality bits", ErrSchemaMismatch, h.Segments, h.CardBits)
	}
	if h.SeriesLen <= 0 || h.SeriesLen%h.Segments != 0 {
		return h, fmt.Errorf("%w: series length %d is not a positive multiple of %d segments", ErrSchemaMismatch, h.SeriesLen, h.Segments)
	}
	if h.LeafCapacity < 1 {
		return h, fmt.Errorf("%w: leaf capacity %d", ErrCorrupt, h.LeafCapacity)
	}
	// Bound the factors individually before the product: SeriesCount is
	// decoded from a uint64 and SeriesLen from a uint32, so an unchecked
	// product could wrap past maxPoints and admit absurd headers (the
	// decoder would then panic instead of returning a typed error).
	if h.SeriesLen > maxSeriesLen {
		return h, fmt.Errorf("%w: header claims %d points per series", ErrCorrupt, h.SeriesLen)
	}
	if h.SeriesCount < 1 || uint64(h.SeriesCount) > maxPoints ||
		uint64(h.SeriesCount)*uint64(h.SeriesLen) > maxPoints {
		return h, fmt.Errorf("%w: header claims %d series × %d points", ErrCorrupt, h.SeriesCount, h.SeriesLen)
	}
	if h.TreeBytes < 8 || h.TreeBytes > maxTreeBytes {
		return h, fmt.Errorf("%w: tree section of %d bytes", ErrCorrupt, h.TreeBytes)
	}
	if h.DataOffset != HeaderSize {
		return h, fmt.Errorf("%w: series block offset %d, want %d", ErrCorrupt, h.DataOffset, HeaderSize)
	}
	return h, nil
}

// write serializes the index (and its normalize flag) to w in the
// snapshot format. w need not be buffered for correctness, but wrapping a
// raw file in a bufio.Writer (as writeFile does) avoids small writes.
func write(w io.Writer, ix *core.Index, normalize bool) error {
	treePayload, err := ix.Tree.AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	h := Header{
		Version:      Version,
		Normalize:    normalize,
		Segments:     ix.Opts.Segments,
		CardBits:     ix.Opts.CardBits,
		LeafCapacity: ix.Opts.LeafCapacity,
		SeriesLen:    ix.Data.Length,
		SeriesCount:  ix.Data.Count(),
		TreeBytes:    int64(len(treePayload)),
		DataOffset:   HeaderSize,
	}
	hdr := h.encode()
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	// The series block and the tree section, each followed by its CRC-32C.
	for _, sec := range [][]byte{blockBytes(ix.Data.Data), treePayload} {
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("persist: write: %w", err)
		}
		if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(sec, castagnoli))); err != nil {
			return fmt.Errorf("persist: write checksum: %w", err)
		}
	}
	return nil
}

// decode restores the index held by one complete member image b — the
// one decoder every load goes through. The series block and the leaf
// words alias b where the host allows (see blockFloats), so b must
// outlive the index. The returned bool is the member's normalize flag.
// Every failure wraps one of the package's typed sentinels.
func decode(b []byte) (*core.Index, bool, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return nil, false, err
	}
	blockLen := int64(h.SeriesCount) * int64(h.SeriesLen) * 4
	total := HeaderSize + blockLen + 4 + h.TreeBytes + 4
	if int64(len(b)) < total {
		return nil, false, fmt.Errorf("%w: file is %d bytes, header describes %d", ErrTruncated, len(b), total)
	}
	if int64(len(b)) > total {
		return nil, false, fmt.Errorf("%w: %d trailing bytes after the tree section", ErrCorrupt, int64(len(b))-total)
	}
	schema, err := isax.NewSchema(h.SeriesLen, h.Segments, h.CardBits)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrSchemaMismatch, err)
	}
	// The tree section is verified and decoded while the series block's
	// checksum, most of a load, runs: neither reads the other.
	var tr *tree.Tree
	treeErr := make(chan error, 1)
	go func() {
		payload, err := section(b[HeaderSize+blockLen+4:], int(h.TreeBytes), "tree section")
		if err == nil {
			if tr, err = tree.Decode(schema, h.LeafCapacity, h.SeriesCount, payload); err != nil {
				err = fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
		}
		treeErr <- err
	}()
	block, err := section(b[HeaderSize:], int(blockLen), "series block")
	if terr := <-treeErr; err == nil {
		err = terr
	}
	if err != nil {
		return nil, false, err
	}
	col, err := series.NewCollection(blockFloats(block), h.SeriesLen)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return core.Restore(col, tr, core.Options{}), h.Normalize, nil
}

// section returns the n-byte section at the start of b after checking it
// against the CRC-32C that follows it.
func section(b []byte, n int, name string) ([]byte, error) {
	if got, stored := crc32.Checksum(b[:n], castagnoli), binary.LittleEndian.Uint32(b[n:]); got != stored {
		return nil, fmt.Errorf("%w: %s CRC %08x, stored %08x", ErrChecksum, name, got, stored)
	}
	return b[:n:n], nil
}

// writeFile atomically writes one member file to path: the bytes land
// in a temporary file in the same directory, which is fsynced and renamed
// over path, so a crash mid-write can never leave a half-written member
// under the target name.
func writeFile(path string, ix *core.Index, normalize bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw, ix, normalize); err != nil {
		return err
	}
	if err := fpWrite.Hit(); err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: flush %s: %w", path, err)
	}
	if err := fpSync.Hit(); err != nil {
		return fmt.Errorf("persist: sync %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("persist: sync %s: %w", path, err)
	}
	// CreateTemp's 0600 would make snapshots owner-only; match the usual
	// create permissions (before umask) instead.
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("persist: chmod %s: %w", path, err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("persist: close %s: %w", path, err)
	}
	tmp = nil
	if err := fpRename.Hit(); err != nil {
		os.Remove(name)
		return fmt.Errorf("persist: rename %s: %w", path, err)
	}
	if err := os.Rename(name, path); err != nil {
		// The rename failing (read-only target, ENOSPC on some
		// filesystems) must not leave the temp file behind, and the
		// caller must see the underlying cause.
		os.Remove(name)
		return fmt.Errorf("persist: rename %s: %w", path, err)
	}
	return nil
}

// readFile loads one member file from path. On unix hosts the file is
// memory-mapped and decoded in place — the series block (and the leaf
// words) alias the mapping, so loading costs one checksum pass instead
// of a copy, and the mapping stays alive as long as the process does
// (unless the decode fails: then it is unmapped). Elsewhere, or if
// mapping fails, the file is read whole; the decoder is the same.
func readFile(path string) (*core.Index, bool, error) {
	b, mapped := mapFile(path)
	if !mapped {
		var err error
		if b, err = os.ReadFile(path); err != nil {
			return nil, false, fmt.Errorf("persist: %w", err)
		}
	}
	ix, normalize, err := decode(b)
	if err != nil {
		if mapped {
			unmap(b)
		}
		return nil, false, fmt.Errorf("%w (file %s)", err, path)
	}
	return ix, normalize, nil
}
