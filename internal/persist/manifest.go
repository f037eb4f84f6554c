package persist

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/shard"
)

// fpManifest fires where a crash or disk failure would interrupt a
// save after its member files are written but before the manifest
// lands — the instant that must leave the previous snapshot intact.
var fpManifest = fault.Register("persist.manifest.write")

// This file defines the snapshot layout: a DIRECTORY holding one member
// file (format v2) per shard plus a checksummed manifest naming them. An
// unsharded index is a directory of one member:
//
//	<dir>/MANIFEST                   magic + length-prefixed JSON + CRC-32C
//	<dir>/shard-0000-<token>.snap    member file (format v2) of shard 0
//	<dir>/shard-0001-<token>.snap    ...
//
// The token is fresh per save, so re-saving over an existing snapshot
// directory never overwrites the files the current manifest names: a
// crash mid-save leaves the old manifest pointing at intact old files
// (strays from the aborted save are swept by the next successful one).
// Only after the new manifest is atomically renamed into place do the
// previous save's member files become garbage and get removed.
//
// Each member file is self-describing and individually checksummed, so
// the manifest only records the partition: the shard count, the
// collection shape, and the per-shard file names in position order. Every
// shard holds at least one series, so every shard has a file; a manifest
// written when a collection of fewer series than shards left empty shards
// ends in one empty name per empty shard, and loads as the same partition
// without them. Shard s covers a contiguous range of positions that
// starts where shard s-1's ends, so the member sizes alone place every
// series. Members are written and loaded in parallel;
// cross-shard consistency (the partition's sizes, matching schema and
// normalize flags) is validated on load.

// ManifestMagic identifies a shard-manifest file (distinct from both the
// snapshot magic "MESSIIX1" and the dataset magic "MESSIDS1").
const ManifestMagic = "MESSIMF1"

// ManifestName is the manifest's file name inside a snapshot directory.
const ManifestName = "MANIFEST"

// ManifestVersion is the current manifest payload version. Version 2
// members are contiguous position ranges; version 1 members were
// round-robin slices, which only a one-member manifest shares with it.
const ManifestVersion = 2

// manifestHeaderSize is the fixed prefix: 8 magic bytes plus the uint32
// payload length.
const manifestHeaderSize = 12

// maxManifestPayload bounds the JSON payload a manifest header may claim.
const maxManifestPayload = 1 << 20

// Manifest describes a snapshot directory.
type Manifest struct {
	Version     int      `json:"version"`
	Shards      int      `json:"shards"`
	SeriesLen   int      `json:"series_len"`
	SeriesCount int      `json:"series_count"`
	Files       []string `json:"files"`
}

// EncodeManifest renders the manifest into its on-disk form: magic,
// little-endian payload length, JSON payload, CRC-32C of the payload.
func EncodeManifest(m Manifest) ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("persist: encode manifest: %w", err)
	}
	out := make([]byte, 0, manifestHeaderSize+len(payload)+4)
	out = append(out, ManifestMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return out, nil
}

// ParseManifest decodes and validates a manifest file image. Like
// ParseHeader it returns a typed error (ErrTruncated, ErrBadMagic,
// ErrVersion, ErrChecksum, ErrCorrupt) for the first problem found and
// never panics on arbitrary input.
func ParseManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < manifestHeaderSize {
		return m, fmt.Errorf("%w: manifest is %d bytes, want at least %d", ErrTruncated, len(b), manifestHeaderSize)
	}
	if string(b[:8]) != ManifestMagic {
		return m, fmt.Errorf("%w: %q", ErrBadMagic, b[:8])
	}
	n := binary.LittleEndian.Uint32(b[8:12])
	if n > maxManifestPayload {
		return m, fmt.Errorf("%w: manifest claims a %d-byte payload", ErrCorrupt, n)
	}
	if len(b) < manifestHeaderSize+int(n)+4 {
		return m, fmt.Errorf("%w: manifest ends inside its payload", ErrTruncated)
	}
	payload := b[manifestHeaderSize : manifestHeaderSize+int(n)]
	stored := binary.LittleEndian.Uint32(b[manifestHeaderSize+int(n):])
	if got := crc32.Checksum(payload, castagnoli); got != stored {
		return m, fmt.Errorf("%w: manifest CRC %08x, stored %08x", ErrChecksum, got, stored)
	}
	if rest := len(b) - (manifestHeaderSize + int(n) + 4); rest != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes after the manifest checksum", ErrCorrupt, rest)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("%w: manifest payload: %w", ErrCorrupt, err)
	}
	switch {
	case m.Version == 1 && m.Shards > 1:
		// Its members have the sizes of the contiguous partition, so a load
		// would scramble positions without any check failing.
		return m, fmt.Errorf("%w: manifest version 1 holds round-robin shards, and shards are contiguous ranges now; regenerate it (messi-gen -snapshot, or a fresh Save)", ErrVersion)
	case m.Version != ManifestVersion && m.Version != 1:
		return m, fmt.Errorf("%w: manifest version %d, this reader understands %d", ErrVersion, m.Version, ManifestVersion)
	}
	if err := m.validate(); err != nil {
		return m, err
	}
	return m, nil
}

// validate checks the manifest's internal consistency and that every file
// name is a plain name inside the snapshot directory (a manifest must not
// be able to point the loader at arbitrary paths).
func (m Manifest) validate() error {
	if m.Shards < 1 || m.Shards > shard.MaxShards {
		return fmt.Errorf("%w: manifest declares %d shards", ErrCorrupt, m.Shards)
	}
	if len(m.Files) != m.Shards {
		return fmt.Errorf("%w: manifest lists %d files for %d shards", ErrCorrupt, len(m.Files), m.Shards)
	}
	if m.SeriesLen < 1 || m.SeriesLen > maxSeriesLen {
		return fmt.Errorf("%w: manifest declares series length %d", ErrCorrupt, m.SeriesLen)
	}
	if m.SeriesCount < 1 || uint64(m.SeriesCount)*uint64(m.SeriesLen) > maxPoints {
		return fmt.Errorf("%w: manifest declares %d series × %d points", ErrCorrupt, m.SeriesCount, m.SeriesLen)
	}
	seen := make(map[string]struct{}, len(m.Files))
	for s, name := range m.Files {
		if name == "" {
			// Snapshots written while a shard could be empty name no file
			// for it; such shards only ever trailed the named ones.
			continue
		}
		if s > 0 && m.Files[s-1] == "" {
			return fmt.Errorf("%w: manifest names a file for shard %d after an unnamed shard", ErrCorrupt, s)
		}
		if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
			return fmt.Errorf("%w: manifest shard %d file name %q escapes the snapshot directory", ErrCorrupt, s, name)
		}
		if name == ManifestName {
			return fmt.Errorf("%w: manifest shard %d uses the reserved file name %q", ErrCorrupt, s, name)
		}
		if _, dup := seen[name]; dup {
			return fmt.Errorf("%w: manifest names %q for two shards", ErrCorrupt, name)
		}
		seen[name] = struct{}{}
	}
	return nil
}

// shardFileName is the per-shard member file name: the shard number
// plus a per-save token (see the package comment on crash safety).
func shardFileName(s int, token string) string {
	return fmt.Sprintf("shard-%04d-%s.snap", s, token)
}

// saveToken returns a fresh random token distinguishing one save's shard
// files from every earlier save into the same directory.
func saveToken() (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("persist: save token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// dirSaves serializes WriteDir calls per target directory (keyed by
// cleaned path): without it, two in-process saves — a shutdown save
// racing a POST /v1/snapshot — could sweep each other's
// in-flight member files and leave a manifest naming deleted files.
// Concurrent saves into one directory from SEPARATE processes remain the
// caller's responsibility, as with any shared file target.
var dirSaves sync.Map // map[string]*sync.Mutex

// WriteDir persists an index as a snapshot directory: one member file
// per shard (written concurrently, each atomically via writeFile, under
// fresh per-save names) plus the checksummed manifest, written last.
// Because member files are never overwritten in place, re-saving over an
// existing snapshot directory is crash-safe: a crash before the manifest
// rename leaves the previous manifest naming its intact files; the moment
// the rename lands, the new snapshot is complete and the superseded member
// files are swept (best-effort). A save that fails removes the member
// files it wrote, so it never leaves a dataset's copy behind. In-process
// saves to the same directory are serialized.
func WriteDir(dir string, x *shard.Index, normalize bool) (err error) {
	if x == nil || x.Len() == 0 {
		return fmt.Errorf("persist: cannot snapshot an empty index")
	}
	muAny, _ := dirSaves.LoadOrStore(filepath.Clean(dir), &sync.Mutex{})
	mu := muAny.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	token, err := saveToken()
	if err != nil {
		return err
	}
	S := x.NumShards()
	m := Manifest{
		Version:     ManifestVersion,
		Shards:      S,
		SeriesLen:   x.SeriesLen(),
		SeriesCount: x.Len(),
		Files:       make([]string, S),
	}
	defer func() {
		if err != nil {
			// Nothing references this save's member files: remove them.
			// Best-effort — a leftover costs disk space until the next
			// successful save sweeps it.
			for _, name := range m.Files {
				os.Remove(filepath.Join(dir, name))
			}
		}
	}()
	errs := make([]error, S)
	var wg sync.WaitGroup
	wg.Add(S)
	for s := range S {
		m.Files[s] = shardFileName(s, token)
		go func() {
			defer wg.Done()
			errs[s] = writeFile(filepath.Join(dir, m.Files[s]), x.Shard(s), normalize)
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return fmt.Errorf("persist: shard %d: %w", s, err)
		}
	}
	if err := fpManifest.Hit(); err != nil {
		return fmt.Errorf("persist: write manifest: %w", err)
	}
	enc, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: write manifest: %w", err)
	}
	name := tmp.Name()
	if _, err = tmp.Write(enc); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, filepath.Join(dir, ManifestName))
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("persist: write manifest: %w", err)
	}
	sweepStaleShards(dir, m.Files)
	return nil
}

// sweepStaleShards removes member files not named by the
// just-written manifest — earlier saves' files and strays from aborted
// saves — plus manifest temp files a crash may have orphaned.
// Best-effort: a leftover file costs disk space, never correctness, so
// errors are ignored.
func sweepStaleShards(dir string, live []string) {
	keep := make(map[string]struct{}, len(live))
	for _, name := range live {
		keep[name] = struct{}{}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		stale := strings.HasPrefix(name, ManifestName+".tmp") // orphaned temp manifest
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".snap") {
			_, ok := keep[name]
			stale = !ok
		}
		// writeFile temp files (shard-....snap.tmp*) orphaned by a
		// crash mid-save are strays too.
		if strings.HasPrefix(name, "shard-") && strings.Contains(name, ".snap.tmp") {
			stale = true
		}
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// ReadDir loads a snapshot directory written by WriteDir: the manifest
// is parsed and validated, the member files are loaded in parallel (each
// through readFile, mmap fast path included), and the shards are
// reassembled with full cross-shard validation. The returned bool is the
// members' common normalize flag.
//
// A writer in ANOTHER process may replace the snapshot between our
// manifest read and the member-file opens (its post-save sweep unlinks
// the superseded files). A vanished member file therefore means "the
// manifest we read was superseded": re-read the manifest and retry
// rather than failing a snapshot that was valid when observed.
func ReadDir(dir string) (*shard.Index, bool, error) {
	if err := checkDir(dir); err != nil {
		return nil, false, err
	}
	const retries = 3
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		var x *shard.Index
		var normalize bool
		x, normalize, err = readDirOnce(dir)
		if err == nil || !errors.Is(err, fs.ErrNotExist) || attempt == retries {
			return x, normalize, err
		}
	}
	return nil, false, err
}

// checkDir rejects a path that is not a directory: a bare member file
// (the single-file snapshot written before every snapshot became a
// directory) with ErrVersion and a "regenerate" message, any other file
// with ErrBadMagic.
func checkDir(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if fi.IsDir() {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(f, magic); err == nil && string(magic) == Magic {
		return fmt.Errorf("%w: %s is a single-file snapshot, and snapshots are directories now; regenerate it (messi-gen -snapshot, or a fresh Save)", ErrVersion, path)
	}
	return fmt.Errorf("%w: %s is not a snapshot directory", ErrBadMagic, path)
}

func readDirOnce(dir string) (*shard.Index, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, false, fmt.Errorf("persist: %w", err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		return nil, false, fmt.Errorf("%w (manifest in %s)", err, dir)
	}

	// A trailing run of unnamed shards is what a collection of fewer
	// series than shards used to leave: the same partition without them.
	files := m.Files
	if i := slices.Index(files, ""); i >= 0 {
		files = files[:i]
	}
	cores := make([]*core.Index, len(files))
	norms := make([]bool, len(files))
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	wg.Add(len(files))
	for s, name := range files {
		go func() {
			defer wg.Done()
			cores[s], norms[s], errs[s] = readFile(filepath.Join(dir, name))
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, false, fmt.Errorf("persist: shard %d: %w", s, err)
		}
	}

	x, err := shard.FromCores(cores)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if x.Len() != m.SeriesCount || x.SeriesLen() != m.SeriesLen {
		return nil, false, fmt.Errorf("%w: manifest declares %d series × %d points, shards hold %d × %d",
			ErrCorrupt, m.SeriesCount, m.SeriesLen, x.Len(), x.SeriesLen())
	}
	for s := range norms {
		if norms[s] != norms[0] {
			return nil, false, fmt.Errorf("%w: shard %d normalize flag differs from its siblings", ErrCorrupt, s)
		}
	}
	return x, norms[0], nil
}

// Present reports whether path holds something ReadDir should load:
// anything but a missing path or a directory with no manifest — which is
// what a save that failed before its manifest landed leaves behind. A
// bare file counts, so ReadDir rejects it rather than a caller silently
// rebuilding over it.
func Present(path string) bool {
	fi, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	if err != nil || !fi.IsDir() {
		return true
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return !errors.Is(err, fs.ErrNotExist)
}

// Size reports the on-disk size of a snapshot directory: the summed
// sizes of the files inside it (0 when dir cannot be listed).
func Size(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}
