// Package persist defines the MESSI index snapshot: a versioned,
// checksummed binary format holding everything needed to serve queries
// without re-running the O(n) construction pipeline — the index options
// and iSAX schema parameters, the raw series block, and the index tree
// in preorder with its leaf payloads. Loading a snapshot skips PAA
// transforms, quantization and splits entirely, so a server restarts in
// the time it takes to read the files.
//
// # Member file layout (version 2, all integers little-endian)
//
//	[0,8)    magic "MESSIIX1"
//	[8,12)   format version (uint32)
//	[12,16)  flags (uint32; bit 0: data and queries are z-normalized)
//	[16,20)  segments (uint32)
//	[20,24)  cardinality bits (uint32)
//	[24,28)  leaf capacity (uint32)
//	[28,32)  series length in points (uint32)
//	[32,40)  series count (uint64)
//	[40,48)  tree section payload length in bytes (uint64)
//	[48,56)  series block offset from file start (uint64; 64 today)
//	[56,60)  reserved (zero)
//	[60,64)  CRC-32C of bytes [0,60)
//
// The series block starts at the 64-byte-aligned offset recorded in the
// header: count*length raw little-endian float32 values, row-major,
// followed by their CRC-32C (uint32). Because the block is contiguous,
// aligned, and exactly the in-memory representation of
// series.Collection.Data on a little-endian host, a loaded index uses the
// region in place — no per-series allocation, no copy.
//
// The tree section follows: the iSAX tree (preorder nodes with leaf
// payloads) and its CRC-32C (uint32). Its layout belongs to
// internal/tree and is specified at tree.Decode, which reads it straight
// into tree nodes; tree.AppendBinary writes it.
//
// # One decoder
//
// A member is loaded from one in-memory image of the file — mapped on
// unix hosts, read whole elsewhere — by one decoder, which checks the
// header, both section CRCs and the tree's structure and summaries, and
// aliases the series block and leaf words into the image. An image whose
// series block is not 4-byte aligned, or any image on a big-endian host,
// gets a converted copy of the block instead; the answers are the same.
//
// # Versioning policy
//
// The version field is bumped on any incompatible layout change; readers
// reject versions they do not know (ErrVersion) rather than guessing.
// Unknown flag bits are rejected the same way, so a file written by a
// newer minor revision with extra semantics cannot be silently
// misinterpreted.
//
// Version 2 changed the leaf word layout inside the tree section from
// entry-major (one w-byte word per entry) to segment-major (w contiguous
// symbol columns per leaf) — the layout the query kernels scan, so a
// mapped load aliases leaf payloads with no conversion. Version 1 files
// are rejected with ErrVersion like any other unknown version and must be
// regenerated from the data (messi-gen -snapshot, or Save on a freshly
// built index).
//
// # Contracts
//
// A snapshot is always a directory: one member file in the layout above
// per shard (every shard holds at least one series), plus a checksummed
// MANIFEST listing the members in position order (each a contiguous
// range), so a load cannot mix files from different snapshots. A manifest
// from before that invariant may end in empty names, one per empty shard;
// it loads as the partition of its named members. An unsharded index is a directory of one
// member. WriteDir and ReadDir are the only save and load. A version 1
// manifest of several members (round-robin shards) fails with ErrVersion
// and must be regenerated; one of a single member still loads.
//
// WriteDir writes each member to a temp file, fsyncs and renames it
// under a fresh per-save name, and renames the manifest into place last:
// a crashed or failed save never changes what the previous manifest
// names, and leaves at most a directory with no manifest, which Present
// reports as no snapshot. Every section is independently checksummed;
// ReadDir verifies the manifest and each member's header, series block
// and tree section CRCs before returning an index, and a corrupt file
// fails with a sentinel error naming the damaged section rather than
// producing a silently wrong index. A bare member file — the single-file
// snapshot of earlier releases — fails with ErrVersion and must be
// regenerated.
package persist
