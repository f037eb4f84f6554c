package delta

import (
	"sync"
	"testing"
)

// mkSeries returns a length-4 series whose points all equal v.
func mkSeries(v float32) []float32 {
	return []float32{v, v, v, v}
}

func TestAppendAndAt(t *testing.T) {
	b := New(4, 3) // tiny blocks to exercise block boundaries
	for i := 0; i < 10; i++ {
		pos, err := b.AppendBatch([][]float32{mkSeries(float32(i))})
		if err != nil {
			t.Fatal(err)
		}
		if pos != i {
			t.Fatalf("append %d returned position %d", i, pos)
		}
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	snap := b.Snapshot()
	for i := 0; i < 10; i++ {
		if got := snap.At(i)[0]; got != float32(i) {
			t.Fatalf("At(%d)[0] = %v, want %v", i, got, float32(i))
		}
	}
}

func TestAppendBatch(t *testing.T) {
	b := New(4, 4)
	if _, err := b.AppendBatch([][]float32{mkSeries(0)}); err != nil {
		t.Fatal(err)
	}
	rows := [][]float32{mkSeries(1), mkSeries(2), mkSeries(3), mkSeries(4), mkSeries(5)}
	first, err := b.AppendBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("batch first position = %d, want 1", first)
	}
	snap := b.Snapshot()
	if snap.Len() != 6 {
		t.Fatalf("snapshot len = %d, want 6", snap.Len())
	}
	for i := 0; i < 6; i++ {
		if got := snap.At(i)[0]; got != float32(i) {
			t.Fatalf("At(%d)[0] = %v, want %v", i, got, float32(i))
		}
	}
}

func TestAppendRejectsWrongLength(t *testing.T) {
	b := New(4, 4)
	if _, err := b.AppendBatch([][]float32{{1, 2}}); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := b.AppendBatch([][]float32{mkSeries(1), {1}}); err == nil {
		t.Fatal("batch with short series accepted")
	}
	if b.Len() != 0 {
		t.Fatalf("failed batch mutated the buffer: len %d", b.Len())
	}
}

// TestSnapshotIsolation: a snapshot must not observe appends made after it
// was taken, even appends landing in the snapshot's last (shared) block.
func TestSnapshotIsolation(t *testing.T) {
	b := New(4, 4)
	for i := 0; i < 5; i++ {
		b.AppendBatch([][]float32{mkSeries(float32(i))})
	}
	snap := b.Snapshot()
	for i := 5; i < 12; i++ {
		b.AppendBatch([][]float32{mkSeries(float32(i))})
	}
	if snap.Len() != 5 {
		t.Fatalf("snapshot len = %d, want 5", snap.Len())
	}
	for i := 0; i < 5; i++ {
		if got := snap.At(i)[0]; got != float32(i) {
			t.Fatalf("snapshot At(%d)[0] = %v, want %v", i, got, float32(i))
		}
	}
	cols, err := snap.Collections()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cols {
		total += c.Count()
	}
	if total != 5 {
		t.Fatalf("collections cover %d series, want 5", total)
	}
}

// TestConcurrentAppendSnapshot exercises concurrent appenders and readers;
// run under -race this validates the locking discipline.
func TestConcurrentAppendSnapshot(t *testing.T) {
	b := New(4, 8)
	const appenders, perAppender = 4, 200
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if _, err := b.AppendBatch([][]float32{mkSeries(float32(a))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := b.Snapshot()
			for j := 0; j < snap.Len(); j++ {
				v := snap.At(j)[0]
				if v < 0 || v >= appenders {
					t.Errorf("snapshot saw torn/uninitialized value %v", v)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if b.Len() != appenders*perAppender {
		t.Fatalf("final len = %d, want %d", b.Len(), appenders*perAppender)
	}
}
