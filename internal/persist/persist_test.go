package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/isax"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/tree"
)

// buildIndex constructs a small index over deterministic data.
func buildIndex(t testing.TB, count, length, leafCap int) *core.Index {
	t.Helper()
	col, err := dataset.Generate(dataset.RandomWalk, count, length, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(col, core.Options{LeafCapacity: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// snapshotBytes serializes ix in memory.
func snapshotBytes(t testing.TB, ix *core.Index, normalize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, ix, normalize); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	ix := buildIndex(t, 2000, 64, 32)
	raw := snapshotBytes(t, ix, true)

	got, normalize, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !normalize {
		t.Error("normalize flag lost")
	}
	if got.Data.Count() != ix.Data.Count() || got.Data.Length != ix.Data.Length {
		t.Fatalf("restored %d×%d, want %d×%d", got.Data.Count(), got.Data.Length, ix.Data.Count(), ix.Data.Length)
	}
	for i, v := range ix.Data.Data {
		if got.Data.Data[i] != v {
			t.Fatalf("series data differs at flat offset %d: %v vs %v", i, got.Data.Data[i], v)
		}
	}
	if gs, ws := got.Stats(), ix.Stats(); gs != ws {
		t.Fatalf("restored tree stats %+v, want %+v", gs, ws)
	}
	if err := got.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if gotOpts, wantOpts := got.Opts, ix.Opts; gotOpts.Segments != wantOpts.Segments ||
		gotOpts.CardBits != wantOpts.CardBits || gotOpts.LeafCapacity != wantOpts.LeafCapacity {
		t.Fatalf("restored opts %+v, want %+v", gotOpts, wantOpts)
	}

	// Restored index answers exactly (brute force over a few queries).
	for qi := 0; qi < 5; qi++ {
		req := core.Request{Query: ix.Data.At(qi * 101)}
		if have, want := search(t, got, req)[0], brute(t, ix.Data, req)[0]; have != want {
			t.Fatalf("query %d: restored answered %+v, brute force %+v", qi, have, want)
		}
	}
}

func TestWriteFileReadFile(t *testing.T) {
	ix := buildIndex(t, 500, 32, 16)
	path := filepath.Join(t.TempDir(), "ix.snap")
	if err := writeFile(path, ix, false); err != nil {
		t.Fatal(err)
	}
	got, normalize, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if normalize {
		t.Error("normalize flag set out of nowhere")
	}
	if gs, ws := got.Stats(), ix.Stats(); gs != ws {
		t.Fatalf("restored tree stats %+v, want %+v", gs, ws)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot directory holds %d entries, want just the snapshot", len(entries))
	}
}

// TestReadFileCorruption exercises the corruption paths through readFile
// (the memory-mapped loader on unix), not just decode over a buffer.
func TestReadFileCorruption(t *testing.T) {
	ix := buildIndex(t, 400, 32, 16)
	dir := t.TempDir()
	write := func(t *testing.T, mutate func(b []byte) []byte) string {
		t.Helper()
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".snap")
		raw := snapshotBytes(t, ix, false)
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
	}{
		{"flipped data byte", func(b []byte) []byte { b[HeaderSize+9] ^= 0x40; return b }, ErrChecksum},
		{"flipped tree byte", func(b []byte) []byte { b[len(b)-5] ^= 0x40; return b }, ErrChecksum},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }, ErrCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t, tc.mutate)
			if _, _, err := readFile(path); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := readFile(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCorruptionTyped: every corruption mode returns its typed sentinel.
func TestCorruptionTyped(t *testing.T) {
	ix := buildIndex(t, 800, 64, 32)
	raw := snapshotBytes(t, ix, false)

	reread := func(b []byte) error {
		_, _, err := decode(b)
		return err
	}

	t.Run("truncated header", func(t *testing.T) {
		if err := reread(raw[:HeaderSize-10]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated series block", func(t *testing.T) {
		if err := reread(raw[:HeaderSize+100]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated tree section", func(t *testing.T) {
		if err := reread(raw[:len(raw)-6]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := bytes.Clone(raw)
		copy(b, "MESSIDS1") // a dataset file is not a snapshot
		if err := reread(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		// 1 is the retired entry-major format: rejected like any other
		// unknown version, with a message saying what to do about it.
		for _, v := range []uint32{0, 1, Version + 1} {
			b := bytes.Clone(raw)
			binary.LittleEndian.PutUint32(b[8:12], v)
			binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
			err := reread(b)
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
			}
			if !strings.Contains(err.Error(), "regenerate") {
				t.Errorf("version %d: error %q does not say the file must be regenerated", v, err)
			}
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(b[12:16], 0x80)
		binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
		if err := reread(b); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("header checksum mismatch", func(t *testing.T) {
		b := bytes.Clone(raw)
		b[33] ^= 0xff // series count tampered, CRC not recomputed
		if err := reread(b); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("series block checksum mismatch", func(t *testing.T) {
		b := bytes.Clone(raw)
		b[HeaderSize+17] ^= 0x01
		if err := reread(b); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("tree section checksum mismatch", func(t *testing.T) {
		b := bytes.Clone(raw)
		b[len(b)-5] ^= 0x01 // inside the tree payload, before its CRC
		if err := reread(b); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("series length/segments mismatch", func(t *testing.T) {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(b[28:32], 63) // not a multiple of 16 segments
		binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
		if err := reread(b); !errors.Is(err, ErrSchemaMismatch) {
			t.Fatalf("err = %v, want ErrSchemaMismatch", err)
		}
	})
	t.Run("segments out of range", func(t *testing.T) {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint32(b[16:20], 99)
		binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
		if err := reread(b); !errors.Is(err, ErrSchemaMismatch) {
			t.Fatalf("err = %v, want ErrSchemaMismatch", err)
		}
	})
	t.Run("overflowing count*length product", func(t *testing.T) {
		// Regression: SeriesCount=1<<61 × SeriesLen=8 wraps uint64 to 0,
		// which once slipped past the maxPoints guard and panicked in the
		// mapped decoder. Must be a typed error from a buffer and a file.
		b := bytes.Clone(raw[:HeaderSize])
		binary.LittleEndian.PutUint64(b[32:40], 1<<61)
		binary.LittleEndian.PutUint32(b[28:32], 8)
		binary.LittleEndian.PutUint32(b[16:20], 8) // segments dividing 8
		binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
		b = append(b, make([]byte, 16)...) // a few bytes past the header
		if err := reread(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("buffer err = %v, want ErrCorrupt", err)
		}
		path := filepath.Join(t.TempDir(), "overflow.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFile(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mapped err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("absurd series count", func(t *testing.T) {
		b := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(b[32:40], 1<<40)
		binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
		if err := reread(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("tree/series count mismatch", func(t *testing.T) {
		// Claim one fewer series: checksums recomputed so decode reaches
		// the tree/data consistency check, which must reject the mismatch
		// (the tree stores 800 positions for a 799-series collection).
		b := buildDoctoredCountSnapshot(t, raw, 799)
		err := reread(b)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// buildDoctoredCountSnapshot rewrites raw to claim newCount series,
// shortening the series block accordingly and fixing every checksum, so
// only the semantic tree/data mismatch remains.
func buildDoctoredCountSnapshot(t *testing.T, raw []byte, newCount int) []byte {
	t.Helper()
	h, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	oldBlock := h.SeriesCount * h.SeriesLen * 4
	newBlock := newCount * h.SeriesLen * 4
	var b bytes.Buffer
	hdr := bytes.Clone(raw[:HeaderSize])
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(newCount))
	binary.LittleEndian.PutUint32(hdr[60:64], crc32Of(hdr[:60]))
	b.Write(hdr)
	block := raw[HeaderSize : HeaderSize+newBlock]
	b.Write(block)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32Of(block))
	b.Write(crcb[:])
	b.Write(raw[HeaderSize+oldBlock+4:]) // tree section + its CRC, unchanged
	return b.Bytes()
}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

func TestParseHeaderRoundTrip(t *testing.T) {
	h := Header{
		Version:      Version,
		Normalize:    true,
		Segments:     16,
		CardBits:     8,
		LeafCapacity: 2000,
		SeriesLen:    256,
		SeriesCount:  123456,
		TreeBytes:    9876,
		DataOffset:   HeaderSize,
	}
	enc := h.encode()
	got, err := ParseHeader(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("ParseHeader(encode(h)) = %+v, want %+v", got, h)
	}
}

// TestSnapshotSharesNoState: mutating a loaded index's data must not
// affect a second load of the same file (each load maps the file
// copy-on-write, or reads it into its own buffer).
func TestSnapshotSharesNoState(t *testing.T) {
	ix := buildIndex(t, 300, 32, 16)
	path := filepath.Join(t.TempDir(), "ix.snap")
	if err := writeFile(path, ix, false); err != nil {
		t.Fatal(err)
	}
	a, _, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data.Data {
		a.Data.Data[i] = float32(math.Inf(1))
	}
	b, _, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Data.Validate(); err != nil {
		t.Fatalf("second load sees first load's mutations: %v", err)
	}
}

// TestZeroSeriesHeaderRejected: write only accepts built (non-empty)
// indexes; a header claiming zero series is corrupt.
func TestZeroSeriesHeaderRejected(t *testing.T) {
	ix := buildIndex(t, 100, 32, 16)
	raw := snapshotBytes(t, ix, false)
	b := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(b[32:40], 0)
	binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
	if _, _, err := decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// search answers one request on a single core index through the query
// engine.
func search(t testing.TB, ix *core.Index, req core.Request) []core.Match {
	t.Helper()
	e := engine.NewUngated(ix.Opts, engine.Options{PoolWorkers: 4, Queues: 2})
	x, err := shard.FromCores([]*core.Index{ix})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Do(engine.View{Base: x}, req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

// brute answers an exact request by brute force over data — the
// reference search must match bitwise.
func brute(t testing.TB, data *series.Collection, req core.Request) []core.Match {
	t.Helper()
	if req.DTW {
		m, err := scan.SearchDTW(data, req.Query, req.Window, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return []core.Match{m}
	}
	ms, err := scan.SearchKNN(data, req.Query, max(req.K, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// searchAnswers collects 1-NN, k-NN and DTW answers for a deterministic
// query workload, through answer.
func searchAnswers(t testing.TB, length int, answer func(core.Request) []core.Match) []core.Match {
	t.Helper()
	queries, err := dataset.Generate(dataset.RandomWalk, 10, length, 77)
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Match
	for qi := 0; qi < queries.Count(); qi++ {
		q := queries.At(qi)
		for _, req := range []core.Request{{Query: q}, {Query: q, K: 3}, {Query: q, DTW: true, Window: 2}} {
			out = append(out, answer(req)...)
		}
	}
	return out
}

// TestRoundTripIdenticalAnswers pins the acceptance criterion that a
// snapshot round trip through the current format yields an index whose
// 1-NN, k-NN and DTW answers are exactly brute force's over the original
// series.
func TestRoundTripIdenticalAnswers(t *testing.T) {
	ix := buildIndex(t, 1500, 64, 32)
	got, _, err := decode(snapshotBytes(t, ix, false))
	if err != nil {
		t.Fatal(err)
	}
	want := searchAnswers(t, ix.Data.Length, func(req core.Request) []core.Match { return brute(t, ix.Data, req) })
	have := searchAnswers(t, ix.Data.Length, func(req core.Request) []core.Match { return search(t, got, req) })
	if len(have) != len(want) {
		t.Fatalf("%d answers after round trip, brute force %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("answer %d differs after round trip: %+v vs %+v", i, have[i], want[i])
		}
	}
}

// treeSection returns where the tree section of member image b starts,
// and b's header.
func treeSection(t testing.TB, b []byte) (int, Header) {
	t.Helper()
	h, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	return HeaderSize + h.SeriesCount*h.SeriesLen*4 + 4, h
}

// reseal recomputes the header, series block and tree section CRCs of
// member image b in place, as far as its header and length allow, so a
// mutation reaches the decoder past the checksums.
func reseal(b []byte) {
	if len(b) < HeaderSize {
		return
	}
	binary.LittleEndian.PutUint32(b[60:64], crc32Of(b[:60]))
	h, err := ParseHeader(b)
	if err != nil {
		return
	}
	block := int64(h.SeriesCount) * int64(h.SeriesLen) * 4
	for _, sec := range [][2]int64{{HeaderSize, block}, {HeaderSize + block + 4, h.TreeBytes}} {
		if end := sec[0] + sec[1]; end+4 <= int64(len(b)) {
			binary.LittleEndian.PutUint32(b[end:], crc32Of(b[sec[0]:end]))
		}
	}
}

// TestLoadValidatesTree: a member whose checksums are intact but whose
// tree breaks the invariants the search relies on — a root summary that
// is not its slot, more bits than the cardinality, a position in two
// leaves — fails with ErrCorrupt instead of loading an index that answers
// differently from brute force.
func TestLoadValidatesTree(t *testing.T) {
	ix := buildIndex(t, 1500, 64, 32)
	raw := snapshotBytes(t, ix, false)
	start, h := treeSection(t, raw)
	root := start + 8 + 8*int(binary.LittleEndian.Uint32(raw[start:])) // node 0, a root child
	var leaf []int32
	ix.Tree.ForEachLeaf(func(n *tree.Node) {
		if leaf == nil && n.LeafLen() >= 2 {
			leaf = n.Positions
		}
	})
	var posBytes []byte
	for _, p := range leaf {
		posBytes = binary.LittleEndian.AppendUint32(posBytes, uint32(p))
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"root symbol flipped", func(b []byte) { b[root+1] ^= 1 }},
		{"bits past CardBits", func(b []byte) { b[root+1+h.Segments] = uint8(h.CardBits + 1) }},
		{"root symbol flipped and bits past CardBits", func(b []byte) {
			b[root+1] ^= 1
			b[root+1+h.Segments] = uint8(h.CardBits + 1)
		}},
		{"leaf position written twice", func(b []byte) {
			at := start + bytes.Index(b[start:], posBytes)
			copy(b[at+4:], b[at:at+4])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := bytes.Clone(raw)
			tc.mutate(b)
			reseal(b)
			if bytes.Equal(b, raw) {
				t.Fatal("mutation left the member unchanged")
			}
			if _, _, err := decode(b); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeUnalignedImage: a member image at an odd offset takes the
// copy-converting series block path, and answers exactly like the
// aliased decode of the same bytes.
func TestDecodeUnalignedImage(t *testing.T) {
	ix := buildIndex(t, 1500, 64, 32)
	raw := snapshotBytes(t, ix, false)
	buf := make([]byte, len(raw)+1)
	copy(buf[1:], raw)
	aligned, _, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	unaligned, _, err := decode(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	aliases := func(x *core.Index, b []byte) bool {
		return unsafe.Pointer(&x.Data.Data[0]) == unsafe.Pointer(&b[HeaderSize])
	}
	if !hostLittleEndian || !aliases(aligned, raw) || aliases(unaligned, buf[1:]) {
		t.Fatalf("want the aligned decode aliased and the unaligned one copied (little-endian host %v)", hostLittleEndian)
	}
	want := searchAnswers(t, ix.Data.Length, func(req core.Request) []core.Match { return search(t, aligned, req) })
	have := searchAnswers(t, ix.Data.Length, func(req core.Request) []core.Match { return search(t, unaligned, req) })
	if !reflect.DeepEqual(have, want) {
		t.Fatal("unaligned decode answers differently from the aliased one")
	}
}

// TestTreeSectionPinned pins the header and tree section bytes written
// for a tree built by tree.Insert from fixed words (no float arithmetic,
// so they hold on every architecture): the encoder may change, the bytes
// may not.
func TestTreeSectionPinned(t *testing.T) {
	schema, err := isax.NewSchema(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.New(schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Four words under root 0 force splits; three equal words under root
	// 15 split to full cardinality and leave an unsplittable leaf and
	// empty siblings.
	words := [][]uint8{{0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1, 0, 0}, {3, 3, 3, 3}, {3, 3, 3, 3}, {3, 3, 3, 3}, {2, 0, 1, 3}, {0, 0, 0, 1}}
	for i, w := range words {
		tr.Insert(tr.EnsureRoot(schema.RootIndex(w)), w, int32(i))
	}
	data := make([]float32, len(words)*8)
	for i := range data {
		data[i] = float32(i)
	}
	col, err := series.NewCollection(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, core.Restore(col, tr, core.Options{}), false); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	start, h := treeSection(t, b)
	const (
		header = "4d45535349495831020000000000000004000000020000000200000008000000" +
			"090000000000000049010000000000004000000000000000000000000c418a4e"
		section = "030000000f000000000000000000000009000000050000000f00000006000000" +
			"0000000000010101010001000000040000000000000000020101010102000000" +
			"0300000001000000000202010102000000000000000000000100000000080000" +
			"0001000100000202010101000000000100000200000001010000000201010102" +
			"0000000101000100000000010000000300000001010000010101010101000000" +
			"0200010307000000000101010101010101000700000008000000010201010102" +
			"0101010000000000030101010201010101090000000a00000001030201010202" +
			"010100000000000303010102020101020b0000000c0000000103030201020202" +
			"0100000000000303030102020201030d0000000e000000010303030202020202" +
			"0000000003030303030202020203000000030303030303030303030303040000" +
			"000500000006000000"
	)
	if got := hex.EncodeToString(b[:HeaderSize]); got != header {
		t.Errorf("header bytes changed:\n got %s\nwant %s", got, header)
	}
	if got := hex.EncodeToString(b[start : start+int(h.TreeBytes)]); got != section {
		t.Errorf("tree section bytes changed:\n got %s\nwant %s", got, section)
	}
	if _, _, err := decode(b); err != nil {
		t.Fatalf("pinned member does not load: %v", err)
	}
}
