// Package wal implements the append-only write-ahead log that makes
// LiveIndex ingestion crash-safe.
//
// Every acked Append/AppendBatch on the live index is journaled here
// before it touches the in-memory delta buffer. On boot the log is
// replayed on top of the newest snapshot, so recovery is
// snapshot + WAL replay; once a snapshot covering a prefix of the log
// lands on disk, Truncate drops the fully-covered segments.
//
// # On-disk layout
//
// The log is a directory of segment files named wal-<firstPos>.seg,
// where firstPos is the global series position of the segment's first
// record (zero-padded hex, so lexicographic order is position order).
// Each segment starts with a fixed header:
//
//	magic "MESSIWL1" | version u32 | seriesLen u32 | firstPos u64 | crc u32
//
// followed by records, one per acked Append/AppendBatch:
//
//	crc u32 | bodyLen u32 | body
//	body = type u8 | firstPos u64 | count u32 | count*seriesLen float32 LE
//
// The crc is CRC-32C (Castagnoli) over the body, the same polynomial
// the snapshot format uses. A batch is one record, so replay restores
// batch atomicity: either every row of a batch is recovered or none.
//
// # Failure semantics
//
// Append acks only bytes that are durable under the configured sync
// policy. If a write or sync fails mid-record the log rolls the
// segment back to the last record boundary, so an error return means
// the record is NOT on disk — acked ⟺ recoverable. A real crash
// (kill, power loss) can still tear the final record mid-write; Open
// tolerates exactly that by truncating a corrupt tail in the LAST
// segment, while corruption anywhere else is reported as ErrCorrupt.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// Failpoints exercised by the crash-recovery matrix. They are no-op
// nil checks unless a test arms them.
var (
	fpAppend = fault.Register("wal.append.write")
	fpRotate = fault.Register("wal.rotate")
	fpSync   = fault.Register("wal.sync")
)

const (
	segMagic   = "MESSIWL1"
	segVersion = 1
	headerSize = 8 + 4 + 4 + 8 + 4 // magic, version, seriesLen, firstPos, crc

	recType      = 1
	recHdrSize   = 4 + 4     // crc, bodyLen
	recFixedBody = 1 + 8 + 4 // type, firstPos, count
	maxBody      = 1 << 30   // sanity cap when decoding corrupt data
	segPrefix    = "wal-"
	segSuffix    = ".seg"
)

// Typed errors. ErrCorrupt means corruption that torn-tail tolerance
// cannot explain (a bad record before the end of the log); recovery
// must not silently skip it.
var (
	ErrClosed   = errors.New("wal: log closed")
	ErrCorrupt  = errors.New("wal: corrupt segment")
	ErrMismatch = errors.New("wal: series length mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append makes records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every record: an acked append survives
	// an immediate power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (every syncEvery):
	// an acked append survives a process kill, and up to one interval
	// of acks may be lost on power failure.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases. Acked
	// appends survive a process kill but not necessarily power loss.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings ("always", "interval",
// "none") to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
	}
}

// Options tune a Log. The zero value is production-safe: fsync on
// every append, 64 MiB segments.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size. Default 64 MiB.
	SegmentBytes int64
	// Sync is the durability policy for Append.
	Sync SyncPolicy
}

// syncEvery is the flush cadence under SyncInterval.
const syncEvery = 100 * time.Millisecond

func (o *Options) withDefaults() Options {
	v := Options{}
	if o != nil {
		v = *o
	}
	if v.SegmentBytes <= 0 {
		v.SegmentBytes = 64 << 20
	}
	return v
}

type segMeta struct {
	firstPos int64
	path     string
}

// Log is an open write-ahead log. Methods are safe for concurrent use,
// though the live index naturally serializes appends under its own
// mutex.
type Log struct {
	dir       string
	seriesLen int
	opts      Options

	mu       sync.Mutex
	segs     []segMeta // all segments, position order; last is active when f != nil
	f        *os.File  // active segment, nil until first append after Open/Truncate-all
	size     int64     // bytes written to the active segment
	next     int64     // next expected global position; -1 = adopt first append's
	start    int64     // first position still held by the log; -1 when empty
	closed   bool
	fail     error         // injected crash left torn bytes; appends refuse until reopen
	stopSync chan struct{} // interval-sync goroutine, nil unless SyncInterval
	syncWG   sync.WaitGroup
	syncErr  error // first background sync failure, surfaced on Close

	buf []byte // record encode scratch, reused across appends
}

// Open opens (creating if needed) the log in dir for series of
// seriesLen float32 points. It validates every segment, truncates a
// torn tail in the last segment, and positions the writer after the
// last intact record. Corruption before the tail returns ErrCorrupt.
func Open(dir string, seriesLen int, opts *Options) (*Log, error) {
	if seriesLen <= 0 {
		return nil, fmt.Errorf("wal: series length %d out of range", seriesLen)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:       dir,
		seriesLen: seriesLen,
		opts:      opts.withDefaults(),
		next:      -1,
		start:     -1,
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if l.opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// scan discovers existing segments, validates the chain, repairs the
// tail, and opens the last segment for appending.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segMeta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		pos, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			return fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segMeta{firstPos: pos, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstPos < segs[j].firstPos })

	// A crash during rotation can leave a trailing segment whose
	// header never made it to disk; drop it like a torn record.
	if n := len(segs); n > 0 {
		if fi, err := os.Stat(segs[n-1].path); err == nil && fi.Size() < headerSize {
			if err := os.Remove(segs[n-1].path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			segs = segs[:n-1]
		}
	}

	next := int64(-1)
	for i, s := range segs {
		last := i == len(segs)-1
		end, tailOff, err := l.validateSegment(s, next, last)
		if err != nil {
			return err
		}
		if last && tailOff >= 0 {
			// Torn tail: cut the last segment back to the last
			// intact record boundary.
			if err := os.Truncate(s.path, tailOff); err != nil {
				return fmt.Errorf("wal: repairing torn tail: %w", err)
			}
		}
		next = end
	}
	l.segs = segs
	l.next = next
	if len(segs) > 0 {
		l.start = segs[0].firstPos
		// Reopen the active segment for appending.
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, size
	}
	return nil
}

// validateSegment checks one segment's header and records. wantPos is
// the position the segment must start at (-1 for the first segment).
// It returns the position after the segment's last intact record and,
// when the segment ends in a torn record that tail-tolerance may
// repair, the byte offset to truncate at (-1 when the segment is
// clean). Torn tails are only legal in the last segment.
func (l *Log) validateSegment(s segMeta, wantPos int64, last bool) (end, tailOff int64, err error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, -1, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	firstPos, err := readHeader(f, l.seriesLen)
	if err != nil {
		return 0, -1, fmt.Errorf("%w (%s)", err, filepath.Base(s.path))
	}
	if firstPos != s.firstPos {
		return 0, -1, fmt.Errorf("%w: %s header position %d does not match its name", ErrCorrupt, filepath.Base(s.path), firstPos)
	}
	if wantPos >= 0 && firstPos != wantPos {
		return 0, -1, fmt.Errorf("%w: gap before %s: want position %d, segment starts at %d", ErrCorrupt, filepath.Base(s.path), wantPos, firstPos)
	}
	end, goodOff, scanErr := forEachRecord(f, l.seriesLen, firstPos, nil)
	if scanErr != nil {
		if !last {
			return 0, -1, fmt.Errorf("%w: %s: %w", ErrCorrupt, filepath.Base(s.path), scanErr)
		}
		return end, goodOff, nil
	}
	return end, -1, nil
}

// readHeader reads and validates a segment header, returning the
// segment's first position.
func readHeader(f *os.File, seriesLen int) (int64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if crc32.Checksum(hdr[:headerSize-4], castagnoli) != binary.LittleEndian.Uint32(hdr[headerSize-4:]) {
		return 0, fmt.Errorf("%w: header checksum", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != segVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if sl := int(binary.LittleEndian.Uint32(hdr[12:])); sl != seriesLen {
		return 0, fmt.Errorf("%w: log has series length %d, index wants %d", ErrMismatch, sl, seriesLen)
	}
	return int64(binary.LittleEndian.Uint64(hdr[16:])), nil
}

// forEachRecord scans records sequentially from f (positioned after
// the header). fn, when non-nil, receives each intact record's first
// position and rows. It returns the position after the last intact
// record, the byte offset just past it, and a non-nil error if the
// scan stopped before clean EOF (a torn or corrupt record).
func forEachRecord(f *os.File, seriesLen int, firstPos int64, fn func(pos int64, rows [][]float32) error) (end, goodOff int64, err error) {
	pos := firstPos
	off := int64(headerSize)
	var hdr [recHdrSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return pos, off, nil // clean end
			}
			return pos, off, fmt.Errorf("torn record header at offset %d", off)
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:])
		bodyLen := binary.LittleEndian.Uint32(hdr[4:])
		if bodyLen < recFixedBody || bodyLen > maxBody {
			return pos, off, fmt.Errorf("implausible record length %d at offset %d", bodyLen, off)
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(f, body); err != nil {
			return pos, off, fmt.Errorf("torn record body at offset %d", off)
		}
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return pos, off, fmt.Errorf("record checksum mismatch at offset %d", off)
		}
		if body[0] != recType {
			return pos, off, fmt.Errorf("unknown record type %d at offset %d", body[0], off)
		}
		recPos := int64(binary.LittleEndian.Uint64(body[1:]))
		count := int(binary.LittleEndian.Uint32(body[9:]))
		if recPos != pos {
			return pos, off, fmt.Errorf("record position %d at offset %d, want %d", recPos, off, pos)
		}
		if count <= 0 || int(bodyLen) != recFixedBody+count*seriesLen*4 {
			return pos, off, fmt.Errorf("record length %d inconsistent with count %d at offset %d", bodyLen, count, off)
		}
		if fn != nil {
			rows := make([][]float32, count)
			payload := body[recFixedBody:]
			for r := 0; r < count; r++ {
				row := make([]float32, seriesLen)
				for j := range row {
					row[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[(r*seriesLen+j)*4:]))
				}
				rows[r] = row
			}
			if err := fn(recPos, rows); err != nil {
				return pos, off, err
			}
		}
		pos += int64(count)
		off += recHdrSize + int64(bodyLen)
	}
}

// Start returns the first global position the log still holds, or -1
// when the log is empty. Boot-time wiring uses it to detect a gap
// between the loaded snapshot and the log.
func (l *Log) Start() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next < 0 {
		return -1
	}
	return l.start
}

// End returns the position after the last logged record, or -1 when
// the log has never seen a record.
func (l *Log) End() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Replay streams every intact logged record with position >= from, in
// position order, into fn. Rows before from inside a partially-covered
// batch are skipped row-by-row so batch records straddling a snapshot
// boundary replay correctly. Replay holds the log's mutex: call it
// before serving appends.
func (l *Log) Replay(from int64, fn func(pos int64, series []float32) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for _, s := range l.segs {
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, err := readHeader(f, l.seriesLen); err != nil {
			f.Close()
			return err
		}
		_, _, err = forEachRecord(f, l.seriesLen, s.firstPos, func(pos int64, rows [][]float32) error {
			for i, row := range rows {
				if p := pos + int64(i); p >= from {
					if err := fn(p, row); err != nil {
						return err
					}
				}
			}
			return nil
		})
		f.Close()
		if err != nil {
			// scan() already repaired torn tails, so any scan error
			// during replay is real corruption (or fn's own error).
			return err
		}
	}
	return nil
}

// Append journals rows starting at global position firstPos and, under
// SyncAlways, makes them durable before returning. A nil return means
// the record is recoverable; any error means the log rolled the
// segment back and the record is not on disk.
func (l *Log) Append(firstPos int64, rows [][]float32) error {
	if len(rows) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.fail != nil {
		return fmt.Errorf("wal: log failed, reopen to recover: %w", l.fail)
	}
	if l.next >= 0 && firstPos != l.next {
		return fmt.Errorf("wal: append at position %d, log ends at %d", firstPos, l.next)
	}
	for _, r := range rows {
		if len(r) != l.seriesLen {
			return fmt.Errorf("%w: appending length %d, log has %d", ErrMismatch, len(r), l.seriesLen)
		}
	}
	if l.f == nil {
		if err := l.openSegment(firstPos); err != nil {
			return err
		}
	} else if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(firstPos); err != nil {
			return err
		}
	}

	rec := l.encode(firstPos, rows)
	recStart := l.size
	allow, ferr := fpAppend.BeforeWrite(len(rec))
	if ferr != nil {
		// Injected partial write: leave the torn bytes behind exactly
		// as a crash mid-write would, and poison the log — the only
		// way back is reopening the directory, whose torn-tail repair
		// cuts the record. This keeps the in-process Log from ever
		// appending after torn bytes.
		if allow > 0 {
			_, _ = l.f.Write(rec[:allow])
		}
		l.fail = ferr
		return ferr
	}
	if _, err := l.f.Write(rec); err != nil {
		l.rollback(recStart)
		return fmt.Errorf("wal: %w", err)
	}
	l.size = recStart + int64(len(rec))
	if l.opts.Sync == SyncAlways {
		if err := l.syncActive(); err != nil {
			l.rollback(recStart)
			return err
		}
	}
	if l.next < 0 {
		l.start = firstPos
	}
	l.next = firstPos + int64(len(rows))
	return nil
}

// rollback restores the active segment to a record boundary after a
// failed write or sync, preserving acked ⟺ on-disk. If the rollback
// itself fails the segment keeps torn bytes, which Open's torn-tail
// repair will cut on the next boot.
func (l *Log) rollback(off int64) {
	if l.f == nil {
		return
	}
	if err := l.f.Truncate(off); err != nil {
		return
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return
	}
	l.size = off
}

func (l *Log) encode(firstPos int64, rows [][]float32) []byte {
	bodyLen := recFixedBody + len(rows)*l.seriesLen*4
	need := recHdrSize + bodyLen
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	rec := l.buf[:need]
	body := rec[recHdrSize:]
	body[0] = recType
	binary.LittleEndian.PutUint64(body[1:], uint64(firstPos))
	binary.LittleEndian.PutUint32(body[9:], uint32(len(rows)))
	payload := body[recFixedBody:]
	for r, row := range rows {
		for j, v := range row {
			binary.LittleEndian.PutUint32(payload[(r*l.seriesLen+j)*4:], math.Float32bits(v))
		}
	}
	binary.LittleEndian.PutUint32(rec[0:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(rec[4:], uint32(bodyLen))
	return rec
}

// openSegment creates a fresh segment starting at firstPos and makes
// its directory entry durable.
func (l *Log) openSegment(firstPos int64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstPos, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], segVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(l.seriesLen))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(firstPos))
	binary.LittleEndian.PutUint32(hdr[headerSize-4:], crc32.Checksum(hdr[:headerSize-4], castagnoli))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Sync != SyncNone {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: %w", err)
		}
		syncDir(l.dir)
	}
	l.f, l.size = f, headerSize
	l.segs = append(l.segs, segMeta{firstPos: firstPos, path: path})
	return nil
}

// rotate seals the active segment and starts a new one at nextPos.
func (l *Log) rotate(nextPos int64) error {
	if err := fpRotate.Hit(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.f = nil
	return l.openSegment(nextPos)
}

// Truncate drops every segment fully covered by a snapshot of the
// first `covered` global series. The active segment is dropped too
// when even its last record is covered; appends then continue into a
// fresh segment.
func (l *Log) Truncate(covered int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	removed := false
	for len(l.segs) > 0 {
		end := l.next
		if len(l.segs) > 1 {
			end = l.segs[1].firstPos
		}
		if end > covered {
			break
		}
		if len(l.segs) == 1 && l.f != nil {
			if err := l.f.Close(); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			l.f, l.size = nil, 0
		}
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		removed = true
		l.segs = l.segs[1:]
	}
	if removed {
		syncDir(l.dir)
	}
	if len(l.segs) > 0 {
		l.start = l.segs[0].firstPos
	} else if l.next >= 0 {
		// Emptied: appends resume at the covered boundary. covered may
		// exceed the last logged position when the caller's snapshot
		// is newer than the log (it holds appends from a previous log
		// lifetime); realign so the next append is accepted.
		if covered > l.next {
			l.next = covered
		}
		l.start = l.next
	}
	return nil
}

// Sync flushes the active segment to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncActive()
}

func (l *Log) syncActive() error {
	if l.f == nil {
		return nil
	}
	if err := fpSync.Hit(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.syncActive(); err != nil && l.syncErr == nil {
					l.syncErr = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the active segment, then stops the background
// sync (SyncInterval), whose first failure, if any, is surfaced here. Only
// the first Close does this; the others return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	err := l.syncErr
	if l.f != nil {
		if l.opts.Sync != SyncNone {
			if serr := l.f.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("wal: %w", serr)
			}
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: %w", cerr)
		}
		l.f = nil
	}
	l.mu.Unlock()
	if l.stopSync != nil {
		// Latched closed, the sync goroutine touches nothing more.
		close(l.stopSync)
		l.syncWG.Wait()
	}
	return err
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
