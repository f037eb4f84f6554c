package messi

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/persist"
)

// The crash-recovery matrix: for every registered failpoint, run a live
// index through an append → rotate → snapshot → truncate → append
// workload with that point armed to fail once mid-stream, "crash" the
// process (abandon the instance without flushing), reboot from whatever
// survived on disk (snapshot and/or WAL), and assert that every acked
// append is recovered bitwise and nothing unacked appears. Run under
// -race in CI's chaos job.

const (
	crashSeriesLen = 32
	// Tiny segments force several rotations inside the workload, so the
	// wal.rotate point fires and recovery crosses segment boundaries.
	crashSegmentBytes = 512
)

// crashRow builds a deterministic series for position i, so reboots can
// reconstruct the expected bytes without shipping state around.
func crashRow(i int) []float32 {
	s := make([]float32, crashSeriesLen)
	for j := range s {
		s[j] = float32(i+1)*0.5 + float32(j)*0.25
	}
	return s
}

func TestCrashRecoveryMatrix(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	for _, shards := range []int{1, 2} {
		for _, name := range fault.Names() {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				runCrashScenario(t, name, shards, fault.Spec{Action: fault.Error}, true)
			})
		}
	}
}

// TestChaosSoak reruns the matrix with nastier specs — repeated faults
// (every hit fails, not just one) and partial writes that tear records.
// It is the CI chaos job's extra mile; locally it is opt-in because it
// multiplies the matrix.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("MESSI_CHAOS") == "" {
		t.Skip("set MESSI_CHAOS=1 to run the chaos soak (the CI chaos job does)")
	}
	t.Cleanup(fault.DisarmAll)
	specs := []struct {
		tag  string
		spec fault.Spec
	}{
		{"repeat", fault.Spec{Action: fault.Error, Repeat: true}},
		{"after2", fault.Spec{Action: fault.Error, After: 2}},
		{"torn", fault.Spec{Action: fault.PartialWrite, Keep: 5}},
	}
	for _, shards := range []int{1, 2} {
		for _, name := range fault.Names() {
			for _, sp := range specs {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, name, sp.tag), func(t *testing.T) {
					// After-N and torn variants may never reach their
					// firing hit on points the workload touches rarely.
					runCrashScenario(t, name, shards, sp.spec, false)
				})
			}
		}
	}
}

func runCrashScenario(t *testing.T, point string, shards int, spec fault.Spec, requireFire bool) {
	t.Cleanup(fault.DisarmAll)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "snap")
	// LeafCapacity 2 splits the tiny base into many leaves, so the exact
	// search below must drain its queue through scanLeaf (the core
	// failpoint) instead of answering from the BSF-seeding scan alone.
	opts := &Options{LeafCapacity: 2, IndexWorkers: 2, SearchWorkers: 2, Shards: shards}
	lopts := &LiveOptions{
		RebuildThreshold: 1 << 30, // rebuilds happen via explicit Flush/Save only
		WALDir:           walDir,
		WALSync:          "always",
		WALSegmentBytes:  crashSegmentBytes,
	}

	ix, err := NewLive(crashSeriesLen, opts, lopts)
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	appendOne := func() {
		if _, aerr := ix.Append(crashRow(acked)); aerr == nil {
			acked++
		} else if !errors.Is(aerr, fault.ErrInjected) {
			t.Fatalf("append %d failed with a non-injected error: %v", acked, aerr)
		}
	}

	// Phase 1 (clean): enough appends to span several WAL segments, then
	// a flush so a base generation exists for the query below.
	for i := 0; i < 10; i++ {
		appendOne()
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}

	firedBefore := fault.Fired(point)
	if err := fault.Arm(point, spec); err != nil {
		t.Fatal(err)
	}

	// Phase 2 (faulted): the full workload crosses every instrumented
	// site — WAL appends and rotations, a query (engine and core
	// points), a snapshot save (persist points, rebuild, truncation) —
	// and exactly one of them fails, depending on which point is armed.
	for i := 0; i < 5; i++ {
		appendOne()
	}
	// A query far from every indexed ramp: its best-so-far stays large,
	// so no leaf prunes and the search reaches the scan failpoints. It
	// may fail — query-path points are armed on purpose.
	_, _ = nn1(ix, make([]float32, crashSeriesLen))
	snapErr := ix.Save(snapPath)
	if snapErr != nil && !errors.Is(snapErr, fault.ErrInjected) {
		t.Fatalf("save failed with a non-injected error: %v", snapErr)
	}
	for i := 0; i < 5; i++ {
		appendOne()
	}

	// Every point must actually have been reached by the workload.
	if requireFire && fault.Fired(point) == firedBefore {
		t.Fatalf("failpoint %s never fired: the scenario does not reach it", point)
	}

	// Crash: abandon the instance. Close releases goroutines and file
	// handles but does not flush the delta or write a snapshot, so
	// on-disk state is exactly what a kill at this instant would leave:
	// the last snapshot, plus the WAL tail.
	fault.DisarmAll()
	ix.Close()

	// Reboot from whatever survived. An aborted save may leave an empty
	// directory behind (never a partial manifest), which is not a
	// loadable snapshot.
	rec := rebootLive(t, snapPath, opts, lopts)
	defer rec.Close()

	if rec.Len() != acked {
		t.Fatalf("recovered %d series, acked %d (point %s, save err: %v)",
			rec.Len(), acked, point, snapErr)
	}
	for i := 0; i < acked; i++ {
		got, err := rec.Series(i)
		if err != nil {
			t.Fatalf("recovered series %d: %v", i, err)
		}
		want := crashRow(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("series %d[%d] = %v, want %v (not bitwise-recovered)", i, j, got[j], want[j])
			}
		}
	}

	// The recovered index serves: appends and queries keep working.
	if _, err := rec.Append(crashRow(acked)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if _, err := nn1(rec, crashRow(0)); err != nil {
		t.Fatalf("search after recovery: %v", err)
	}
}

// TestCrashTornRecordDropped kills the WAL mid-write: a partial write
// leaves torn bytes at the tail, the append is never acked, and a
// reboot recovers every acked series while dropping the torn record.
func TestCrashTornRecordDropped(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	dir := t.TempDir()
	opts := &Options{LeafCapacity: 64, IndexWorkers: 2, SearchWorkers: 2}
	lopts := &LiveOptions{
		RebuildThreshold: 1 << 30,
		WALDir:           filepath.Join(dir, "wal"),
		WALSync:          "always",
	}
	ix, err := NewLive(crashSeriesLen, opts, lopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ix.Append(crashRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the next record 11 bytes in: CRC cannot match, so replay
	// must treat it as the torn tail of a crashed write.
	if err := fault.Arm("wal.append.write", fault.Spec{Action: fault.PartialWrite, Keep: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Append(crashRow(6)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn append: err = %v, want injected", err)
	}
	// The log is poisoned until reopened — further appends must refuse
	// rather than interleave good records after torn bytes.
	if _, err := ix.Append(crashRow(6)); err == nil {
		t.Fatal("append after torn write succeeded; want refusal until reopen")
	}
	ix.Close()

	rec, err := NewLive(crashSeriesLen, opts, lopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 6 {
		t.Fatalf("recovered %d series, want 6 (torn record must be dropped)", rec.Len())
	}
	// The repaired log accepts appends again.
	if _, err := rec.Append(crashRow(6)); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
}

// rebootLive reopens the on-disk state like a restarted server (the same
// persist.Present test messi-serve boots by): from the snapshot plus the
// WAL tail when a snapshot is present, from the WAL alone otherwise.
func rebootLive(t *testing.T, snapPath string, opts *Options, lopts *LiveOptions) *LiveIndex {
	t.Helper()
	if persist.Present(snapPath) {
		rec, err := LoadLive(snapPath, opts, lopts)
		if err != nil {
			t.Fatalf("reboot from snapshot: %v", err)
		}
		return rec
	}
	rec, err := NewLive(crashSeriesLen, opts, lopts)
	if err != nil {
		t.Fatalf("reboot from WAL alone: %v", err)
	}
	return rec
}

// TestQueryPanickedPublicSentinel pins the public error surface on every
// frontend — LiveIndex, Index (one shard, three, and Loaded from a
// snapshot) and Index.NewEngine's LiveIndex: a panic in any unit of a
// query's work, injected in the engine's unit or in core's leaf scan,
// reaches API consumers as ErrQueryPanicked, matchable with errors.Is, and
// the next query on the same frontend is answered exactly.
func TestQueryPanickedPublicSentinel(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	data := RandomWalk(200, crashSeriesLen, 11)
	live, err := BuildLiveFlat(data, crashSeriesLen, &Options{LeafCapacity: 64, SearchWorkers: 2},
		&LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	frontends := map[string]doer{"live": live}
	for _, shards := range []int{1, 3} {
		ix, err := BuildFlat(data, crashSeriesLen, &Options{LeafCapacity: 64, SearchWorkers: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		eng := ix.NewEngine(nil)
		defer eng.Close()
		frontends[fmt.Sprintf("index/shards=%d", shards)] = ix
		frontends[fmt.Sprintf("engine/shards=%d", shards)] = eng
		path := filepath.Join(t.TempDir(), "snap")
		if err := ix.Save(path); err != nil {
			t.Fatal(err)
		}
		if frontends[fmt.Sprintf("loaded/shards=%d", shards)], err = Load(path); err != nil {
			t.Fatal(err)
		}
	}
	q := crashRow(0)
	for name, ix := range frontends {
		want, err := nn1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, point := range []string{"engine.unit", "core.scanleaf"} {
			if err := fault.Arm(point, fault.Spec{Action: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			if _, err := nn1(ix, q); !errors.Is(err, ErrQueryPanicked) {
				t.Fatalf("%s, %s: err = %v, want ErrQueryPanicked", name, point, err)
			}
			res, err := ix.Do(context.Background(), SearchRequest{Query: q})
			if err != nil {
				t.Fatalf("%s, %s: query after recovered panic: %v (the index must keep serving)", name, point, err)
			}
			if !res.Exact || res.Best() != want {
				t.Fatalf("%s, %s: query after recovered panic answered %+v, want exactly %+v", name, point, res, want)
			}
		}
	}
}

// TestCrashRecoveryTruncatedLog is the happy-path half of the matrix: a
// snapshot covering the whole log truncates it, a crash after further
// appends reboots from snapshot + short tail, and a second crash with
// NO snapshot at all reboots from the log alone.
func TestCrashRecoveryTruncatedLog(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "snap")
	opts := &Options{LeafCapacity: 64, IndexWorkers: 2, SearchWorkers: 2}
	lopts := &LiveOptions{
		RebuildThreshold: 1 << 30,
		WALDir:           walDir,
		WALSync:          "always",
		WALSegmentBytes:  crashSegmentBytes,
	}

	ix, err := NewLive(crashSeriesLen, opts, lopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ix.Append(crashRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Save(snapPath); err != nil { // flush + snapshot + truncate
		t.Fatal(err)
	}
	for i := 20; i < 27; i++ { // tail beyond the snapshot
		if _, err := ix.Append(crashRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.Close() // crash: tail never snapshotted

	rec, err := LoadLive(snapPath, opts, lopts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 27 {
		t.Fatalf("recovered %d series, want 27", rec.Len())
	}
	for i := 0; i < 27; i++ {
		got, err := rec.Series(i)
		if err != nil {
			t.Fatal(err)
		}
		want := crashRow(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("series %d[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	rec.Close()
}
