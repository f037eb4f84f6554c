package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fault"
)

func mkRows(rng *rand.Rand, n, length int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		row := make([]float32, length)
		for j := range row {
			row[j] = rng.Float32()*2 - 1
		}
		rows[i] = row
	}
	return rows
}

func collect(t *testing.T, l *Log, from int64) map[int64][]float32 {
	t.Helper()
	got := map[int64][]float32{}
	if err := l.Replay(from, func(pos int64, s []float32) error {
		cp := make([]float32, len(s))
		copy(cp, s)
		got[pos] = cp
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func assertRows(t *testing.T, got map[int64][]float32, want [][]float32, base int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d series, want %d", len(got), len(want))
	}
	for i, w := range want {
		g, ok := got[base+int64(i)]
		if !ok {
			t.Fatalf("position %d missing after replay", base+int64(i))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("position %d differs at point %d: %v != %v", base+int64(i), j, g[j], w[j])
			}
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 8, &Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := mkRows(rng, 10, 8)
	// Mix single appends and batches.
	if err := l.Append(0, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, rows[1:5]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(5, rows[5:]); err != nil {
		t.Fatal(err)
	}
	if end := l.End(); end != 10 {
		t.Fatalf("End = %d, want 10", end)
	}
	assertRows(t, collect(t, l, 0), rows, 0)
	// Replay from an offset skips covered rows, even mid-batch.
	part := collect(t, l, 3)
	assertRows(t, part, rows[3:], 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify the log survives a clean restart.
	l2, err := Open(dir, 8, &Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if end := l2.End(); end != 10 {
		t.Fatalf("End after reopen = %d, want 10", end)
	}
	assertRows(t, collect(t, l2, 0), rows, 0)
	// And appends continue at the right position.
	if err := l2.Append(9, rows[:1]); err == nil {
		t.Fatal("append at stale position must fail")
	}
	if err := l2.Append(10, rows[:1]); err != nil {
		t.Fatal(err)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	l, err := Open(dir, 4, &Options{Sync: SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := mkRows(rng, 40, 4)
	for i, r := range rows {
		if err := l.Append(int64(i), [][]float32{r}); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	assertRows(t, collect(t, l, 0), rows, 0)

	// A snapshot covering the first 20 series drops fully-covered
	// segments but keeps everything at or past position 20.
	if err := l.Truncate(20); err != nil {
		t.Fatal(err)
	}
	if s := l.Start(); s > 20 {
		t.Fatalf("Start after partial truncate = %d, must be <= 20", s)
	}
	assertRows(t, collect(t, l, 20), rows[20:], 20)

	// Covering everything empties the log; appends then resume.
	if err := l.Truncate(40); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("log should be empty after full truncate, replayed %d", len(got))
	}
	if err := l.Append(40, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(41, rows[1:2]); err != nil {
		t.Fatal(err)
	}
	assertRows(t, collect(t, l, 40), rows[:2], 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 4, &Options{Sync: SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertRows(t, collect(t, l2, 0), rows[:2], 40)
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := mkRows(rng, 5, 6)
	for i, r := range rows {
		if err := l.Append(int64(i), [][]float32{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record mid-payload, as a crash mid-write would.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 6, nil)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer l2.Close()
	if end := l2.End(); end != 4 {
		t.Fatalf("End after torn tail = %d, want 4", end)
	}
	assertRows(t, collect(t, l2, 0), rows[:4], 0)
	// The torn position is writable again.
	if err := l2.Append(4, rows[4:]); err != nil {
		t.Fatal(err)
	}
	assertRows(t, collect(t, l2, 0), rows, 0)
}

func TestCorruptionBeforeTailRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 4, &Options{Sync: SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rows := mkRows(rng, 30, 4)
	for i, r := range rows {
		if err := l.Append(int64(i), [][]float32{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment: not a torn tail, so
	// recovery must refuse rather than silently drop acked data.
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 4, &Options{Sync: SyncNone, SegmentBytes: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestSeriesLengthMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(0, [][]float32{make([]float32, 5)}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("append wrong length = %v, want ErrMismatch", err)
	}
	if err := l.Append(0, mkRows(rand.New(rand.NewSource(5)), 1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 16, nil); !errors.Is(err, ErrMismatch) {
		t.Fatalf("open with different length = %v, want ErrMismatch", err)
	}
}

func TestInjectedPartialWriteIsUnackedAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.DisarmAll)
	rng := rand.New(rand.NewSource(6))
	rows := mkRows(rng, 3, 4)
	if err := l.Append(0, rows[:2]); err != nil {
		t.Fatal(err)
	}
	// Tear the next record after 10 bytes, like a crash mid-write.
	if err := fault.Arm("wal.append.write", fault.Spec{Action: fault.PartialWrite, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, rows[2:]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted append = %v, want ErrInjected", err)
	}
	// The log is poisoned until reopened, like a dead process.
	if err := l.Append(2, rows[2:]); err == nil {
		t.Fatal("append after injected crash must fail")
	}
	// "Reboot": reopen the directory. Torn-tail repair must cut the
	// unacked record and keep every acked one.
	l2, err := Open(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertRows(t, collect(t, l2, 0), rows[:2], 0)
	if end := l2.End(); end != 2 {
		t.Fatalf("End = %d, want 2 (unacked record must not be recovered)", end)
	}
}

func TestInjectedRotateFailureLeavesLogUsable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 4, &Options{Sync: SyncNone, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	t.Cleanup(fault.DisarmAll)
	rng := rand.New(rand.NewSource(7))
	rows := mkRows(rng, 6, 4)
	if err := l.Append(0, rows[:2]); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("wal.rotate", fault.Spec{Action: fault.Error}); err != nil {
		t.Fatal(err)
	}
	// Segment is over 64 bytes, so this append wants a rotation; the
	// injected failure must surface and ack nothing.
	if err := l.Append(2, rows[2:4]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted rotate append = %v, want ErrInjected", err)
	}
	// One-shot fault has auto-disarmed: the retry succeeds.
	if err := l.Append(2, rows[2:4]); err != nil {
		t.Fatalf("retry after rotate fault: %v", err)
	}
	if err := l.Append(4, rows[4:]); err != nil {
		t.Fatal(err)
	}
	assertRows(t, collect(t, l, 0), rows, 0)
}

func TestCrashDuringRotationDropsHeaderlessSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 4, &Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	rows := mkRows(rand.New(rand.NewSource(8)), 2, 4)
	if err := l.Append(0, rows); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between creating the next segment file and
	// writing its header.
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000002.seg"), []byte("MESSIWL1"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, 4, &Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("open over headerless trailing segment: %v", err)
	}
	defer l2.Close()
	if end := l2.End(); end != 2 {
		t.Fatalf("End = %d, want 2", end)
	}
	assertRows(t, collect(t, l2, 0), rows, 0)
}

func TestSyncPolicies(t *testing.T) {
	for _, name := range []string{"always", "interval", "none"} {
		t.Run(name, func(t *testing.T) {
			pol, err := ParseSyncPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			l, err := Open(dir, 4, &Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			rows := mkRows(rand.New(rand.NewSource(9)), 4, 4)
			for i, r := range rows {
				if err := l.Append(int64(i), [][]float32{r}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			assertRows(t, collect(t, l2, 0), rows, 0)
		})
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy must be rejected")
	}
}

// TestConcurrentClose: concurrent Closes of an interval-synced log stop
// its sync goroutine once — one returns nil, the others ErrClosed.
func TestConcurrentClose(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 200; i++ {
		l, err := Open(filepath.Join(root, strconv.Itoa(i)), 4, &Options{Sync: SyncInterval})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = l.Close()
			}(g)
		}
		wg.Wait()
		closed := 0
		for _, err := range errs {
			switch {
			case err == nil:
				closed++
			case !errors.Is(err, ErrClosed):
				t.Fatalf("log %d: Close = %v, want nil or ErrClosed", i, err)
			}
		}
		if closed != 1 {
			t.Fatalf("log %d: %d Closes returned nil, want 1", i, closed)
		}
	}
}

// BenchmarkWALAppend pins the per-append journaling cost (encode +
// write, no fsync) so the bench-compare gate catches regressions in
// the hot ingestion path.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, 128, &Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	row := [][]float32{make([]float32, 128)}
	for i := range row[0] {
		row[0][i] = float32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(int64(i), row); err != nil {
			b.Fatal(err)
		}
	}
}
