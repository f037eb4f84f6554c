package messi

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// mustSeries fetches an indexed series, failing the test on range errors.
func mustSeries(t testing.TB, ix *Index, pos int) []float32 {
	t.Helper()
	s, err := ix.Series(pos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildAndSearch(t *testing.T) {
	data := RandomWalk(2000, 64, 1)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2000 || ix.SeriesLen() != 64 {
		t.Fatalf("shape: %d×%d", ix.Len(), ix.SeriesLen())
	}
	// Self-queries must return themselves at distance 0.
	for i := 0; i < 20; i++ {
		pos := i * 97 % 2000
		q := make([]float32, 64)
		copy(q, mustSeries(t, ix, pos))
		m, err := nn1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if m.Distance != 0 {
			t.Fatalf("self query %d: distance %v", pos, m.Distance)
		}
	}
}

func TestBuildFromRows(t *testing.T) {
	rows := [][]float32{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		{9, 9, 9, 9, 0, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0},
	}
	ix, err := Build(rows, &Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn1(ix, rows[2])
	if err != nil {
		t.Fatal(err)
	}
	if m.Position != 2 || m.Distance != 0 {
		t.Errorf("got %+v, want exact row 2", m)
	}
	// Build must copy: mutating the caller's rows does not affect results.
	rows[2][0] = 1000
	m2, err := nn1(ix, mustSeries(t, ix, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Distance != 0 {
		t.Error("index storage aliased caller rows")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Error("nil rows accepted")
	}
	if _, err := BuildFlat(make([]float32, 10), 3, nil); err == nil {
		t.Error("non-multiple flat data accepted")
	}
	if _, err := BuildFlat(make([]float32, 100), 100, &Options{Cardinality: 100}); err == nil {
		t.Error("non-power-of-two cardinality accepted")
	}
	if _, err := BuildFlat(make([]float32, 100), 100, &Options{Segments: 16}); err == nil {
		t.Error("length 100 with 16 segments accepted")
	}
}

func TestCardinalityMapping(t *testing.T) {
	data := RandomWalk(200, 64, 2)
	for _, card := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		ix, err := BuildFlat(data, 64, &Options{Cardinality: card, LeafCapacity: 32})
		if err != nil {
			t.Fatalf("cardinality %d: %v", card, err)
		}
		q := make([]float32, 64)
		copy(q, mustSeries(t, ix, 7))
		m, err := nn1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if m.Distance != 0 {
			t.Errorf("cardinality %d: self query distance %v", card, m.Distance)
		}
	}
}

func TestSearchReturnsTrueDistance(t *testing.T) {
	data := RandomWalk(500, 64, 3)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := RandomWalk(1, 64, 99)
	m, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the true distance directly.
	var sq float64
	best := mustSeries(t, ix, m.Position)
	for i := range q {
		d := float64(q[i] - best[i])
		sq += d * d
	}
	if math.Abs(m.Distance-math.Sqrt(sq)) > 1e-5 {
		t.Errorf("Distance %v, direct %v", m.Distance, math.Sqrt(sq))
	}
}

func TestSearchKNNOrdering(t *testing.T) {
	data := SeismicLike(1000, 64, 4)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := SeismicLike(1, 64, 105)
	ms, err := knn(ix, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 {
		t.Fatalf("got %d matches", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Distance < ms[i-1].Distance {
			t.Error("results not sorted")
		}
	}
	// First result must agree with 1-NN search.
	m1, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms[0].Distance-m1.Distance) > 1e-9 {
		t.Errorf("kNN[0] %v != 1NN %v", ms[0].Distance, m1.Distance)
	}
}

func TestSearchDTWWindow(t *testing.T) {
	data := RandomWalk(500, 64, 5)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := RandomWalk(1, 64, 106)
	ed, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	d10, err := dtwNN(ix, q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// DTW under any window is never worse than the ED nearest neighbor.
	if d10.Distance > ed.Distance+1e-6 {
		t.Errorf("DTW %v exceeds ED %v", d10.Distance, ed.Distance)
	}
	// Out-of-range fractions are rejected — they used to be clamped
	// silently (window=-0.5 answered with err=nil), which hid caller bugs.
	if _, err := dtwNN(ix, q, -0.5); err == nil {
		t.Error("negative window fraction accepted")
	}
}

func TestNormalizeOption(t *testing.T) {
	// Unnormalized data with wildly different scales: with Normalize the
	// index matches on shape, not magnitude.
	rows := make([][]float32, 64)
	for i := range rows {
		rows[i] = make([]float32, 32)
		scale := float32(i + 1)
		for j := range rows[i] {
			rows[i][j] = scale * float32(j%7)
		}
	}
	ix, err := Build(rows, &Options{Normalize: true, LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	// A scaled copy of row 0's shape must match at distance ~0.
	q := make([]float32, 32)
	for j := range q {
		q[j] = 1000 * float32(j%7)
	}
	m, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance > 1e-4 {
		t.Errorf("normalized search distance %v, want ~0", m.Distance)
	}
}

func TestFileRoundTripThroughAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.bin")
	data := SALDLike(100, 128, 6)
	if err := WriteSeriesFile(path, data, 128); err != nil {
		t.Fatal(err)
	}
	got, length, err := ReadSeriesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if length != 128 || len(got) != len(data) {
		t.Fatalf("shape %d×%d", len(got)/length, length)
	}
	ix, err := BuildFromFile(path, &Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 {
		t.Errorf("Len = %d", ix.Len())
	}
	q := make([]float32, 128)
	copy(q, mustSeries(t, ix, 42))
	m, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance != 0 {
		t.Errorf("self query after file round trip: %v", m.Distance)
	}
}

func TestStats(t *testing.T) {
	data := RandomWalk(3000, 64, 7)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Series != 3000 {
		t.Errorf("Stats.Series = %d", s.Series)
	}
	if s.Leaves == 0 || s.RootChildren == 0 || s.MaxDepth == 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
	if s.MaxLeafFill > 32 {
		t.Errorf("leaf overflow: %+v", s)
	}
}

func TestGeneratorsPanicOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero count")
		}
	}()
	RandomWalk(0, 64, 1)
}

func TestApproxSearchPublicAPI(t *testing.T) {
	data := RandomWalk(2000, 64, 11)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := RandomWalk(1, 64, 777)
	approx, err := approxNN(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := nn1(ix, q)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Distance < exact.Distance-1e-9 {
		t.Errorf("approximate %v below exact %v", approx.Distance, exact.Distance)
	}
	if _, err := approxNN(ix, make([]float32, 3)); err == nil {
		t.Error("wrong-length approx query accepted")
	}
}

func TestSlidingWindowsPublicAPI(t *testing.T) {
	stream := RandomWalk(1, 1024, 12)
	flat, err := SlidingWindows(stream, 256, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat)%256 != 0 {
		t.Fatalf("flat length %d not a multiple of the window", len(flat))
	}
	if _, err := SlidingWindows(stream, 0, 1, false); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := SlidingWindows(stream[:10], 256, 1, false); err == nil {
		t.Error("short stream accepted")
	}
}

func TestReadSeriesFileErrors(t *testing.T) {
	if _, _, err := ReadSeriesFile("/nonexistent/path.bin"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteSeriesFileErrors(t *testing.T) {
	if err := WriteSeriesFile("/tmp/x.bin", make([]float32, 10), 3); err == nil {
		t.Error("non-multiple data accepted")
	}
}

func TestBuildFromFileMissing(t *testing.T) {
	if _, err := BuildFromFile("/nonexistent/path.bin", nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOptionsNilEqualsDefaults(t *testing.T) {
	data := RandomWalk(300, 64, 13)
	a, err := BuildFlat(data, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFlat(data, 64, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Errorf("nil options %+v != zero options %+v", a.Stats(), b.Stats())
	}
}

func TestSeriesAccessor(t *testing.T) {
	rows := [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}}
	ix, err := Build(rows, &Options{Segments: 4, LeafCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSeries(t, ix, 1); got[0] != 5 || got[3] != 8 {
		t.Errorf("Series(1) = %v", got)
	}
	// Out-of-range positions are reported, not panics or silent nils.
	for _, pos := range []int{-1, len(rows), len(rows) + 10} {
		if _, err := ix.Series(pos); err == nil {
			t.Errorf("Series(%d) did not error", pos)
		}
	}
}

// A traced DTW query reports every Figure 13 phase, like a Euclidean one:
// the DTW search is the same run with a different distance kernel, so its
// tree pass, queue traffic and distance calculations are all timed. Each
// worker's phases are disjoint stretches of the query's wall-clock window,
// so their sum is bounded by workers × Elapsed (10 % slack for the clock
// reads that bracket Elapsed itself).
func TestTracedDTWReportsEveryPhase(t *testing.T) {
	const workers = 2
	ix, err := BuildFlat(RandomWalk(4000, 64, 1), 64, &Options{LeafCapacity: 32, SearchWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Do(context.Background(), SearchRequest{
		Query: RandomWalk(1, 64, 2), DTW: true, Window: 0.1, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Phases) != 5 {
		t.Fatalf("trace = %+v, want the 5 phases of Figure 13", res.Trace)
	}
	var sum time.Duration
	for _, p := range res.Trace.Phases {
		if p.Duration <= 0 {
			t.Errorf("phase %q = %v, want > 0", p.Name, p.Duration)
		}
		sum += p.Duration
	}
	if limit := time.Duration(float64(workers) * float64(res.Trace.Elapsed) * 1.1); sum > limit {
		t.Errorf("phases sum to %v, more than %d workers × elapsed %v × 1.1", sum, workers, res.Trace.Elapsed)
	}
}
