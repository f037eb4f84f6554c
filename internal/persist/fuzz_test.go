package persist

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/paa"
	"repro/internal/tree"
)

// FuzzParseHeader drives arbitrary bytes through the snapshot header
// decoder: it must never panic, must reject anything whose checksum does
// not validate, and on acceptance must be canonical (re-encoding the
// parsed header reproduces the input bytes exactly).
func FuzzParseHeader(f *testing.F) {
	valid := Header{
		Version:      Version,
		Normalize:    true,
		Segments:     16,
		CardBits:     8,
		LeafCapacity: 2000,
		SeriesLen:    256,
		SeriesCount:  1000,
		TreeBytes:    4096,
		DataOffset:   HeaderSize,
	}.encodeSeed()
	f.Add(valid)
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0}, HeaderSize))
	corrupted := bytes.Clone(valid)
	corrupted[20] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ParseHeader(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrSchemaMismatch) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		enc := h.encode()
		if !bytes.Equal(enc[:], b[:HeaderSize]) {
			t.Fatalf("accepted header is not canonical:\n got %x\nfrom %x", enc, b[:HeaderSize])
		}
	})
}

// encodeSeed is a test-only convenience producing the header bytes as a
// plain slice for fuzz seeding.
func (h Header) encodeSeed() []byte {
	b := h.encode()
	return b[:]
}

// FuzzRead feeds mutated member images through decode: every outcome
// must be either a typed error or a structurally valid index whose tree
// re-encodes to the input's tree section byte for byte. The harness
// re-seals the checksums after mutating, so mutations reach tree.Decode
// instead of stopping at a CRC.
func FuzzRead(f *testing.F) {
	col, err := dataset.Generate(dataset.RandomWalk, 64, 32, 5)
	if err != nil {
		f.Fatal(err)
	}
	ix, err := core.Build(col, core.Options{LeafCapacity: 8})
	if err != nil {
		f.Fatal(err)
	}
	// Build keys this member's root on k = 3 of the 16 segments (64 series,
	// leaf 8); the same series inserted under MESSI's root (k = w) seed the
	// other shape.
	if k := ix.Tree.RootBits(); k != 3 {
		f.Fatalf("64 series at leaf 8 key the root on %d segments, want 3", k)
	}
	messi, err := tree.New(ix.Schema, 8)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < col.Count(); i++ {
		word := ix.Schema.WordFromPAA(paa.Transform(col.At(i), ix.Schema.Segments, nil), nil)
		messi.Insert(messi.EnsureRoot(messi.RootKey(word)), word, int32(i))
	}
	for _, member := range []*core.Index{ix, core.Restore(col, messi, core.Options{})} {
		var buf bytes.Buffer
		if err := write(&buf, member, false); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:HeaderSize])
	}
	// A manifest where a member belongs must fail typed, not panic.
	f.Add(emptyShardsManifest(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		b = bytes.Clone(b)
		reseal(b)
		got, _, err := decode(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrSchemaMismatch) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if verr := got.Tree.CheckInvariants(); verr != nil {
			t.Fatalf("accepted snapshot decodes to an invalid tree: %v", verr)
		}
		enc, err := got.Tree.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if start, h := treeSection(t, b); !bytes.Equal(enc, b[start:start+int(h.TreeBytes)]) {
			t.Fatal("accepted tree section does not re-encode to its own bytes")
		}
	})
}

// FuzzParseManifest drives arbitrary bytes through the shard-manifest
// decoder: it must never panic, and every rejection must carry one of the
// package's typed sentinel errors.
func FuzzParseManifest(f *testing.F) {
	m := Manifest{
		Version:     ManifestVersion,
		Shards:      4,
		SeriesLen:   32,
		SeriesCount: 100,
		Files:       []string{"shard-0000.snap", "shard-0001.snap", "shard-0002.snap", "shard-0003.snap"},
	}
	valid, err := EncodeManifest(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	m.Version = 1 // round-robin shards: refused with ErrVersion
	v1, err := EncodeManifest(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte(ManifestMagic))
	f.Add(bytes.Repeat([]byte{0}, 16))
	corrupted := bytes.Clone(valid)
	corrupted[len(corrupted)/2] ^= 0xff
	f.Add(corrupted)
	f.Add(emptyShardsManifest(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseManifest(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) &&
				!errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped manifest error: %v", err)
			}
			return
		}
		// An accepted manifest must re-validate and re-encode cleanly.
		if _, err := EncodeManifest(m); err != nil {
			t.Fatalf("accepted manifest fails to re-encode: %v", err)
		}
	})
}

// emptyShardsManifest encodes withEmptyShards over three member names.
func emptyShardsManifest(f *testing.F) []byte {
	enc, err := EncodeManifest(withEmptyShards([]string{"shard-0000.snap", "shard-0001.snap", "shard-0002.snap"}))
	if err != nil {
		f.Fatal(err)
	}
	return enc
}
