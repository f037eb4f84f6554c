package delta

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/series"
)

// mkSeries returns a length-4 series whose points all equal v.
func mkSeries(v float32) []float32 {
	return []float32{v, v, v, v}
}

// flatten lists the first point of every series in chunks, in order.
func flatten(chunks []*series.Collection) []float32 {
	var out []float32
	for _, c := range chunks {
		for i := 0; i < c.Count(); i++ {
			out = append(out, c.At(i)[0])
		}
	}
	return out
}

// checkSeq fails unless got is 0, 1, …, n-1.
func checkSeq(t *testing.T, got []float32, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("chunks hold %d series, want %d", len(got), n)
	}
	for i, v := range got {
		if v != float32(i) {
			t.Fatalf("series %d = %v, want %v", i, v, float32(i))
		}
	}
}

// TestChunksFollowBlocks: blocks of 3 series give chunks of 3, 3, 3, 1 for
// 10 appended series, in position order.
func TestChunksFollowBlocks(t *testing.T) {
	b := New(4, 3)
	for i := 0; i < 10; i++ {
		pos, err := b.AppendBatch([][]float32{mkSeries(float32(i))})
		if err != nil {
			t.Fatal(err)
		}
		if pos != i {
			t.Fatalf("append %d returned position %d", i, pos)
		}
	}
	chunks := b.Chunks()
	var sizes []int
	for _, c := range chunks {
		sizes = append(sizes, c.Count())
	}
	if want := []int{3, 3, 3, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	checkSeq(t, flatten(chunks), 10)
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
	checkSeq(t, flatten(b.Chunks()), 6)
}

func TestAppendRejectsWrongLength(t *testing.T) {
	b := New(4, 4)
	if _, err := b.AppendBatch([][]float32{{1, 2}}); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := b.AppendBatch([][]float32{mkSeries(1), {1}}); err == nil {
		t.Fatal("batch with short series accepted")
	}
	if got := flatten(b.Chunks()); len(got) != 0 {
		t.Fatalf("failed batch mutated the buffer: %d series", len(got))
	}
}

// TestChunksIsolation: a chunk list must not observe appends made after it
// was taken, even appends landing in its last (still filling) block.
func TestChunksIsolation(t *testing.T) {
	b := New(4, 4)
	for i := 0; i < 5; i++ {
		b.AppendBatch([][]float32{mkSeries(float32(i))})
	}
	chunks := b.Chunks()
	for i := 5; i < 12; i++ {
		b.AppendBatch([][]float32{mkSeries(float32(i))})
	}
	if len(chunks) != 2 || chunks[1].Count() != 1 {
		t.Fatalf("chunk list changed under appends: %d chunks", len(chunks))
	}
	checkSeq(t, flatten(chunks), 5)
	checkSeq(t, flatten(b.Chunks()), 12)
}

// TestConcurrentAppendChunks exercises concurrent appenders and readers;
// run under -race this validates the locking discipline.
func TestConcurrentAppendChunks(t *testing.T) {
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
			for _, v := range flatten(b.Chunks()) {
				if v < 0 || v >= appenders {
					t.Errorf("chunks saw torn/uninitialized value %v", v)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(flatten(b.Chunks())); got != appenders*perAppender {
		t.Fatalf("final len = %d, want %d", got, appenders*perAppender)
	}
}

// TestChunksAllocsFlat: an append plus Chunks allocates as much over a
// buffer of 40 blocks as over one of 1 — publishing the chunks does not
// rebuild a collection per block.
func TestChunksAllocsFlat(t *testing.T) {
	const blockSeries = 16
	row := [][]float32{mkSeries(1)}
	allocs := func(blocks int) float64 {
		b := New(4, blockSeries)
		for i := 0; i < blocks*blockSeries-blockSeries/2; i++ {
			b.AppendBatch(row)
		}
		// Stay inside the last block, so no run fills one.
		return testing.AllocsPerRun(blockSeries/4, func() {
			b.AppendBatch(row)
			b.Chunks()
		})
	}
	if one, forty := allocs(1), allocs(40); one != forty {
		t.Fatalf("append + Chunks: %v allocs at 1 block, %v at 40", one, forty)
	}
}
