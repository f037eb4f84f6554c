package persist

import (
	"bufio"
	"bytes"
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

// hostLittleEndian gates the bulk fast path: on little-endian hosts the
// on-disk series block and the in-memory []float32 are byte-identical,
// so the block can be read into (or written from) the float storage
// directly — the no-per-series-work load the format is laid out for. The
// portable conversion path keeps big-endian hosts correct.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float32Bytes views a float32 slice as its raw bytes (little-endian
// hosts only; callers gate on hostLittleEndian).
func float32Bytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
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
	st := ix.Snapshot()
	treePayload, err := encodeTree(st.Tree, st.Opts.Segments)
	if err != nil {
		return err
	}
	h := Header{
		Version:      Version,
		Normalize:    normalize,
		Segments:     st.Opts.Segments,
		CardBits:     st.Opts.CardBits,
		LeafCapacity: st.Opts.LeafCapacity,
		SeriesLen:    st.Data.Length,
		SeriesCount:  st.Data.Count(),
		TreeBytes:    int64(len(treePayload)),
		DataOffset:   HeaderSize,
	}
	hdr := h.encode()
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}

	// Series block: raw little-endian float32s, then their CRC.
	data := st.Data.Data
	var sum uint32
	if hostLittleEndian {
		raw := float32Bytes(data)
		sum = crc32.Checksum(raw, castagnoli)
		if _, err := w.Write(raw); err != nil {
			return fmt.Errorf("persist: write series block: %w", err)
		}
	} else {
		crc := crc32.New(castagnoli)
		buf := make([]byte, 4*4096)
		for off := 0; off < len(data); off += 4096 {
			end := off + 4096
			if end > len(data) {
				end = len(data)
			}
			chunk := data[off:end]
			for i, v := range chunk {
				binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
			}
			part := buf[:len(chunk)*4]
			crc.Write(part)
			if _, err := w.Write(part); err != nil {
				return fmt.Errorf("persist: write series block: %w", err)
			}
		}
		sum = crc.Sum32()
	}
	if err := writeUint32(w, sum); err != nil {
		return err
	}

	// Tree section: flattened tree payload, then its CRC.
	if _, err := w.Write(treePayload); err != nil {
		return fmt.Errorf("persist: write tree section: %w", err)
	}
	return writeUint32(w, crc32.Checksum(treePayload, castagnoli))
}

func writeUint32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("persist: write checksum: %w", err)
	}
	return nil
}

// read decodes a snapshot from r and restores the index. The returned
// bool is the snapshot's normalize flag. All corruption paths return
// errors wrapping the typed sentinels of this package.
func read(r io.Reader) (*core.Index, bool, error) {
	var hdr [HeaderSize]byte
	if err := readFull(r, hdr[:], "header"); err != nil {
		return nil, false, err
	}
	h, err := ParseHeader(hdr[:])
	if err != nil {
		return nil, false, err
	}

	// Series block: one flat allocation for the whole collection,
	// filled with bulk reads — no per-series work. On little-endian
	// hosts the bytes are read straight into the float storage.
	col, err := series.NewEmptyCollection(h.SeriesCount, h.SeriesLen)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	var sum uint32
	if hostLittleEndian {
		raw := float32Bytes(col.Data)
		if err := readFull(r, raw, "series block"); err != nil {
			return nil, false, err
		}
		sum = crc32.Checksum(raw, castagnoli)
	} else {
		crc := crc32.New(castagnoli)
		buf := make([]byte, 4*4096)
		for off := 0; off < len(col.Data); {
			want := len(col.Data) - off
			if want > 4096 {
				want = 4096
			}
			if err := readFull(r, buf[:want*4], "series block"); err != nil {
				return nil, false, err
			}
			crc.Write(buf[:want*4])
			for i := 0; i < want; i++ {
				col.Data[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
			}
			off += want
		}
		sum = crc.Sum32()
	}
	stored, err := readUint32(r, "series block checksum")
	if err != nil {
		return nil, false, err
	}
	if sum != stored {
		return nil, false, fmt.Errorf("%w: series block CRC %08x, stored %08x", ErrChecksum, sum, stored)
	}

	treePayload := make([]byte, h.TreeBytes)
	if err := readFull(r, treePayload, "tree section"); err != nil {
		return nil, false, err
	}
	stored, err = readUint32(r, "tree section checksum")
	if err != nil {
		return nil, false, err
	}
	if got := crc32.Checksum(treePayload, castagnoli); got != stored {
		return nil, false, fmt.Errorf("%w: tree section CRC %08x, stored %08x", ErrChecksum, got, stored)
	}
	flat, err := decodeTree(treePayload, h)
	if err != nil {
		return nil, false, err
	}

	ix, err := core.Restore(core.SnapshotState{
		Data: col,
		Tree: flat,
		Opts: core.Options{
			Segments:     h.Segments,
			CardBits:     h.CardBits,
			LeafCapacity: h.LeafCapacity,
		},
	})
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return ix, h.Normalize, nil
}

// readFull wraps io.ReadFull, mapping short reads to ErrTruncated.
func readFull(r io.Reader, b []byte, section string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: unexpected end of file in %s", ErrTruncated, section)
		}
		return fmt.Errorf("persist: read %s: %w", section, err)
	}
	return nil
}

func readUint32(r io.Reader, section string) (uint32, error) {
	var b [4]byte
	if err := readFull(r, b[:], section); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Tree section payload layout (after the fixed header; little-endian):
//
//	uint32 root count, uint32 node count
//	per root:  uint32 slot, uint32 node index
//	per node (preorder, children strictly after parents):
//	  uint8 flags (bit 0: leaf, bit 1: unsplittable)
//	  w×uint8 symbols, w×uint8 bits
//	  internal: uint8 split segment, uint32 left, uint32 right
//	  leaf:     uint32 entry count, count×w word bytes, count×uint32 positions
//
// The count×w leaf word bytes are segment-major: w columns of count
// symbols each, the in-memory scan layout.
const (
	treeFlagLeaf         = 1 << 0
	treeFlagUnsplittable = 1 << 1
)

func encodeTree(f *tree.Flat, segments int) ([]byte, error) {
	var b bytes.Buffer
	putU32 := func(v uint32) {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], v)
		b.Write(tmp[:])
	}
	putU32(uint32(len(f.RootSlots)))
	putU32(uint32(len(f.Nodes)))
	for i := range f.RootSlots {
		putU32(uint32(f.RootSlots[i]))
		putU32(uint32(f.RootNodes[i]))
	}
	for i := range f.Nodes {
		n := &f.Nodes[i]
		if len(n.Symbols) != segments || len(n.Bits) != segments {
			return nil, fmt.Errorf("persist: node %d has %d/%d summary segments, want %d", i, len(n.Symbols), len(n.Bits), segments)
		}
		var flags uint8
		if n.IsLeaf() {
			flags |= treeFlagLeaf
		}
		if n.Unsplittable {
			flags |= treeFlagUnsplittable
		}
		b.WriteByte(flags)
		b.Write(n.Symbols)
		b.Write(n.Bits)
		if n.IsLeaf() {
			putU32(uint32(len(n.Positions)))
			b.Write(n.Words)
			for _, p := range n.Positions {
				putU32(uint32(p))
			}
		} else {
			b.WriteByte(n.SplitSegment)
			putU32(uint32(n.Left))
			putU32(uint32(n.Right))
		}
	}
	return b.Bytes(), nil
}

// decodeTree decodes the tree section into a tree.Flat, with structural
// bounds checks sized against the header (a corrupt payload cannot force
// allocations beyond what the header already admitted).
func decodeTree(payload []byte, h Header) (*tree.Flat, error) {
	w := h.Segments
	cur := payload
	take := func(n int, what string) ([]byte, error) {
		if len(cur) < n {
			return nil, fmt.Errorf("%w: tree section ends inside %s", ErrCorrupt, what)
		}
		b := cur[:n]
		cur = cur[n:]
		return b, nil
	}
	u32 := func(what string) (uint32, error) {
		b, err := take(4, what)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b), nil
	}

	rootCount, err := u32("root count")
	if err != nil {
		return nil, err
	}
	nodeCount, err := u32("node count")
	if err != nil {
		return nil, err
	}
	if rootCount == 0 || rootCount > uint32(1)<<h.Segments || rootCount > nodeCount {
		return nil, fmt.Errorf("%w: %d root subtrees for fanout %d (%d nodes)", ErrCorrupt, rootCount, 1<<h.Segments, nodeCount)
	}
	// Every node occupies at least 1+2w+4 bytes, so a sane node count is
	// bounded by the payload the header declared.
	if minBytes := uint64(nodeCount) * uint64(2*w+5); nodeCount == 0 || minBytes > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %d nodes cannot fit in a %d-byte tree section", ErrCorrupt, nodeCount, len(payload))
	}

	f := &tree.Flat{
		RootSlots: make([]int32, rootCount),
		RootNodes: make([]int32, rootCount),
		Nodes:     make([]tree.FlatNode, nodeCount),
	}
	for i := range f.RootSlots {
		slot, err := u32("root slot")
		if err != nil {
			return nil, err
		}
		idx, err := u32("root node index")
		if err != nil {
			return nil, err
		}
		f.RootSlots[i] = int32(slot)
		f.RootNodes[i] = int32(idx)
	}

	remaining := h.SeriesCount // leaf entries still unaccounted for
	for i := range f.Nodes {
		flagsB, err := take(1, "node flags")
		if err != nil {
			return nil, err
		}
		flags := flagsB[0]
		symbols, err := take(w, "node symbols")
		if err != nil {
			return nil, err
		}
		bits, err := take(w, "node bits")
		if err != nil {
			return nil, err
		}
		n := &f.Nodes[i]
		n.Symbols, n.Bits = symbols, bits
		n.Unsplittable = flags&treeFlagUnsplittable != 0
		if flags&treeFlagLeaf != 0 {
			n.Left, n.Right = -1, -1
			count, err := u32("leaf entry count")
			if err != nil {
				return nil, err
			}
			if int64(count) > int64(remaining) {
				return nil, fmt.Errorf("%w: leaf claims %d entries with only %d series unaccounted for", ErrCorrupt, count, remaining)
			}
			remaining -= int(count)
			words, err := take(int(count)*w, "leaf words")
			if err != nil {
				return nil, err
			}
			n.Words = words
			posBytes, err := take(int(count)*4, "leaf positions")
			if err != nil {
				return nil, err
			}
			n.Positions = make([]int32, count)
			for j := range n.Positions {
				n.Positions[j] = int32(binary.LittleEndian.Uint32(posBytes[j*4:]))
			}
		} else {
			segB, err := take(1, "split segment")
			if err != nil {
				return nil, err
			}
			n.SplitSegment = segB[0]
			left, err := u32("left child")
			if err != nil {
				return nil, err
			}
			right, err := u32("right child")
			if err != nil {
				return nil, err
			}
			n.Left, n.Right = int32(left), int32(right)
			if n.Left < 0 || n.Right < 0 { // > math.MaxInt32 wrapped negative
				return nil, fmt.Errorf("%w: node %d child index overflow", ErrCorrupt, i)
			}
		}
	}
	if len(cur) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after tree nodes", ErrCorrupt, len(cur))
	}
	return f, nil
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

// readFile loads one member file from path. On unix little-endian
// hosts the file is memory-mapped and decoded in place — the series
// block (and the leaf words) alias the mapping, so loading costs one
// checksum pass instead of a copy, and the mapping stays alive as long
// as the process does. Elsewhere (or if mapping fails) it falls back to
// streaming reads; the file format is identical either way.
func readFile(path string) (*core.Index, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	var (
		ix        *core.Index
		normalize bool
	)
	if b, ok := mmapFile(f); ok && hostLittleEndian && alignedFloat32(b) {
		ix, normalize, err = decodeMapped(b)
	} else {
		ix, normalize, err = read(f)
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w (file %s)", err, path)
	}
	return ix, normalize, nil
}

// alignedFloat32 reports whether the mapping base is 4-byte aligned —
// always true for a page-aligned mmap (and HeaderSize is a multiple of
// 4, so the series block stays aligned), but the unsafe cast below must
// never be reachable otherwise.
func alignedFloat32(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%4 == 0
}

// decodeMapped decodes a complete in-memory snapshot image, aliasing the
// series block and leaf words instead of copying them. Callers guarantee
// a little-endian host and 4-byte alignment of b[HeaderSize:].
func decodeMapped(b []byte) (*core.Index, bool, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return nil, false, err
	}
	blockBytes64 := int64(h.SeriesCount) * int64(h.SeriesLen) * 4
	total := int64(HeaderSize) + blockBytes64 + 4 + h.TreeBytes + 4
	if int64(len(b)) < total {
		return nil, false, fmt.Errorf("%w: file is %d bytes, header describes %d", ErrTruncated, len(b), total)
	}
	if int64(len(b)) > total {
		return nil, false, fmt.Errorf("%w: %d trailing bytes after the tree section", ErrCorrupt, int64(len(b))-total)
	}
	blockBytes := int(blockBytes64)
	raw := b[HeaderSize : HeaderSize+blockBytes]
	if got, stored := crc32.Checksum(raw, castagnoli), binary.LittleEndian.Uint32(b[HeaderSize+blockBytes:]); got != stored {
		return nil, false, fmt.Errorf("%w: series block CRC %08x, stored %08x", ErrChecksum, got, stored)
	}
	data := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), h.SeriesCount*h.SeriesLen)
	col, err := series.NewCollection(data, h.SeriesLen)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	treeStart := HeaderSize + blockBytes + 4
	payload := b[treeStart : treeStart+int(h.TreeBytes)]
	if got, stored := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[treeStart+int(h.TreeBytes):]); got != stored {
		return nil, false, fmt.Errorf("%w: tree section CRC %08x, stored %08x", ErrChecksum, got, stored)
	}
	flat, err := decodeTree(payload, h)
	if err != nil {
		return nil, false, err
	}
	ix, err := core.Restore(core.SnapshotState{
		Data: col,
		Tree: flat,
		Opts: core.Options{Segments: h.Segments, CardBits: h.CardBits, LeafCapacity: h.LeafCapacity},
	})
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return ix, h.Normalize, nil
}
