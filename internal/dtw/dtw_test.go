package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

func randWalk(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = float32(v)
	}
	return s
}

func TestWindowSize(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{256, 0.1, 26},
		{256, 0, 0},
		{256, -1, 0},
		{10, 0.05, 1},
		{10, 5, 9},
		{1, 0.5, 0},
	}
	for i, c := range cases {
		if got := WindowSize(c.n, c.frac); got != c.want {
			t.Errorf("case %d: WindowSize(%d,%v) = %d, want %d", i, c.n, c.frac, got, c.want)
		}
	}
}

func TestCheckWindow(t *testing.T) {
	if err := CheckWindow(256, 25); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
	if err := CheckWindow(256, -1); err == nil {
		t.Error("negative window accepted")
	}
	if err := CheckWindow(256, 256); err == nil {
		t.Error("window >= n accepted")
	}
}

func TestEnvelopeKnown(t *testing.T) {
	q := []float32{0, 1, 2, 1, 0}
	u, l := Envelope(q, 1)
	wantU := []float32{1, 2, 2, 2, 1}
	wantL := []float32{0, 0, 1, 0, 0}
	for i := range q {
		if u[i] != wantU[i] || l[i] != wantL[i] {
			t.Errorf("i=%d: envelope (%v,%v), want (%v,%v)", i, l[i], u[i], wantL[i], wantU[i])
		}
	}
}

func TestEnvelopeZeroRadius(t *testing.T) {
	q := []float32{3, -1, 4}
	u, l := Envelope(q, 0)
	for i := range q {
		if u[i] != q[i] || l[i] != q[i] {
			t.Errorf("r=0 envelope must equal the series at %d", i)
		}
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	u, l := Envelope(nil, 3)
	if len(u) != 0 || len(l) != 0 {
		t.Error("empty series should give empty envelope")
	}
}

// Envelope must match a brute-force sliding min/max.
func TestEnvelopeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw)%100 + 1
		r := int(rRaw) % n
		rg := rand.New(rand.NewSource(seed))
		q := randWalk(rg, n)
		u, l := Envelope(q, r)
		for i := 0; i < n; i++ {
			lo, hi := i-r, i+r
			if lo < 0 {
				lo = 0
			}
			if hi > n-1 {
				hi = n - 1
			}
			mx, mn := q[lo], q[lo]
			for j := lo + 1; j <= hi; j++ {
				if q[j] > mx {
					mx = q[j]
				}
				if q[j] < mn {
					mn = q[j]
				}
			}
			if u[i] != mx || l[i] != mn {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistanceZeroBandIsED(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		a := randWalk(rng, n)
		b := randWalk(rng, n)
		dtw := DistanceExact(a, b, 0)
		ed := vector.SquaredEuclidean(a, b)
		if math.Abs(dtw-ed) > 1e-6*(1+ed) {
			t.Fatalf("trial %d: DTW r=0 %v != ED %v", trial, dtw, ed)
		}
	}
}

func TestDistanceIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randWalk(rng, 64)
	if d := DistanceExact(a, a, 5); d != 0 {
		t.Errorf("DTW(a,a) = %v, want 0", d)
	}
}

func TestDistanceKnownWarp(t *testing.T) {
	// b is a shifted by one step; with r >= 1 DTW should align nearly all
	// points and be much smaller than ED.
	a := []float32{0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	b := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 8}
	dtw := DistanceExact(a, b, 2)
	ed := vector.SquaredEuclidean(a, b)
	if dtw >= ed {
		t.Errorf("DTW %v should beat ED %v on a shifted ramp", dtw, ed)
	}
	if dtw != 0 {
		t.Errorf("DTW = %v; shifted ramp with duplicated endpoints warps to 0", dtw)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw)%60 + 1
		r := int(rRaw) % n
		rg := rand.New(rand.NewSource(seed))
		a := randWalk(rg, n)
		b := randWalk(rg, n)
		d1 := DistanceExact(a, b, r)
		d2 := DistanceExact(b, a, r)
		return math.Abs(d1-d2) <= 1e-6*(1+d1)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Widening the band can only shrink the DTW distance; ED is the r=0 cap.
func TestDistanceMonotoneInBand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 2
		rg := rand.New(rand.NewSource(seed))
		a := randWalk(rg, n)
		b := randWalk(rg, n)
		prev := math.Inf(1)
		for r := 0; r < n; r += 1 + n/8 {
			d := DistanceExact(a, b, r)
			if d > prev+1e-6 {
				return false
			}
			prev = d
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// LB_Keogh lower-bounds cDTW (the classic exact-indexing result), up to
// the summation-order slack Cascade allows for.
func TestLBKeoghLowerBoundsDTW(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw)%80 + 1
		r := int(rRaw) % n
		rg := rand.New(rand.NewSource(seed))
		q := randWalk(rg, n)
		c := randWalk(rg, n)
		u, l := Envelope(q, r)
		lb := LBKeogh(c, l, u, math.Inf(1))
		d := DistanceExact(q, c, r)
		return lb <= d*slack
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEarlyAbandonConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(100)
		r := rng.Intn(n)
		a := randWalk(rng, n)
		b := randWalk(rng, n)
		exact := DistanceExact(a, b, r)
		// Generous limit: must return the exact value.
		if got := Distance(a, b, r, exact+1); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("trial %d: limit above exact changed result: %v vs %v", trial, got, exact)
		}
		// Tight limit: must return >= limit.
		if exact > 0 {
			if got := Distance(a, b, r, exact/2); got < exact/2 {
				t.Fatalf("trial %d: abandoned result %v < limit %v", trial, got, exact/2)
			}
		}
	}
}

func TestDistanceTinyInputs(t *testing.T) {
	if d := Distance(nil, nil, 0, math.Inf(1)); d != 0 {
		t.Errorf("empty DTW = %v, want 0", d)
	}
	if d := Distance([]float32{2}, []float32{5}, 0, math.Inf(1)); d != 9 {
		t.Errorf("singleton DTW = %v, want 9", d)
	}
}

// referenceDistance is the plain DP the band-only kernel is pinned
// against: it resets every cell of each row, tests reachability per cell
// and takes the 3-way minimum with compare-and-branch.
func referenceDistance(a, b []float32, r int, limit float64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if n == 1 {
		d := float64(a[0]) - float64(b[0])
		return d * d
	}
	inf := math.Inf(1)
	prev, cur := make([]float64, n), make([]float64, n)
	// Row 0: only cells j in [0, r]; dp[0][j] = dp[0][j-1] + cost(0, j).
	for j := range prev {
		prev[j] = inf
	}
	{
		acc := 0.0
		hi := r
		if hi > n-1 {
			hi = n - 1
		}
		for j := 0; j <= hi; j++ {
			d := float64(a[0]) - float64(b[j])
			acc += d * d
			prev[j] = acc
		}
	}
	for i := 1; i < n; i++ {
		lo := i - r
		if lo < 0 {
			lo = 0
		}
		hi := i + r
		if hi > n-1 {
			hi = n - 1
		}
		for j := range cur {
			cur[j] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			best := prev[j] // vertical move (i-1, j)
			if j > 0 {
				if v := prev[j-1]; v < best { // diagonal (i-1, j-1)
					best = v
				}
				if v := cur[j-1]; v < best { // horizontal (i, j-1)
					best = v
				}
			}
			if math.IsInf(best, 1) {
				continue
			}
			d := float64(a[i]) - float64(b[j])
			c := best + d*d
			cur[j] = c
			if c < rowMin {
				rowMin = c
			}
		}
		if rowMin >= limit {
			return rowMin
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

// checkAgainstReference measures the pair (a, b) under band r with
// Distance and Cascade against limit, and reports how either departs from
// the reference: below limit they must return its exact bits, otherwise
// some value >= limit.
func checkAgainstReference(a, b []float32, r int, limit float64) error {
	ref := referenceDistance(a, b, r, math.Inf(1))
	u, l := Envelope(a, r)
	casc, _ := Cascade(a, b, l, u, r, limit)
	for _, got := range []struct {
		name string
		d    float64
	}{{"Distance", Distance(a, b, r, limit)}, {"Cascade", casc}} {
		if ref < limit && math.Float64bits(got.d) != math.Float64bits(ref) {
			return fmt.Errorf("n=%d r=%d limit=%v: %s = %v, reference %v", len(a), r, limit, got.name, got.d, ref)
		}
		if ref >= limit && got.d < limit {
			return fmt.Errorf("n=%d r=%d limit=%v: %s = %v below limit, reference %v", len(a), r, limit, got.name, got.d, ref)
		}
	}
	return nil
}

// limits returns the limits a pair is checked against: unbounded, the
// near-ties on either side of the reference, and random fractions of it.
func limits(rng *rand.Rand, ref float64) []float64 {
	return []float64{
		math.Inf(1), ref, math.Nextafter(ref, math.Inf(1)), math.Nextafter(ref, 0),
		ref * rng.Float64(), ref * (1 + rng.Float64()),
	}
}

func TestDistanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(300)
		if trial%2 == 0 {
			n = 1 + rng.Intn(12)
		}
		r := rng.Intn(n)
		a, b := randWalk(rng, n), randWalk(rng, n)
		for _, limit := range limits(rng, referenceDistance(a, b, r, math.Inf(1))) {
			if err := checkAgainstReference(a, b, r, limit); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestDistanceMatchesReferenceSmall sweeps every band of every short
// length, so each shape of the two-row pass is met: a column of one row
// alone at either end of the band, a last row alone (odd n), and bands
// that reach both edges of the matrix.
func TestDistanceMatchesReferenceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 40; n++ {
		for r := 0; r < n; r++ {
			a, b := randWalk(rng, n), randWalk(rng, n)
			for _, limit := range limits(rng, referenceDistance(a, b, r, math.Inf(1))) {
				if err := checkAgainstReference(a, b, r, limit); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// The DP tests its abandon bound after every second row. Here the row-by-
// row reference abandons on row 2, whose every cell costs 100; Cascade
// must abandon at the next row it tests, not run on to the last row,
// which costs 100 more.
func TestCascadeAbandonsAtTheNextTestedRow(t *testing.T) {
	q := []float32{0, 0, 10, 0, 0, 10}
	x := make([]float32, len(q))
	const r, limit = 1, 50
	if ref := referenceDistance(q, x, r, limit); ref != 100 {
		t.Fatalf("reference = %v, want to abandon at 100", ref)
	}
	u, l := Envelope(q, r)
	if d, ran := Cascade(q, x, l, u, r, limit); d != 100 || !ran {
		t.Errorf("Cascade = %v, ran %v; want 100 from the DP", d, ran)
	}
	if d := DistanceExact(q, x, r); d != 200 {
		t.Errorf("DistanceExact = %v, want 200", d)
	}
}

func FuzzDistanceMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(128), uint16(13), 0.5)
	f.Add(int64(2), uint16(3), uint16(0), 1.0)
	f.Add(int64(3), uint16(300), uint16(299), 2.0)
	// n = 1, 2, 3, 128 and 129 (with and without a last row alone), at
	// r = 0 and r = n-1 (the field holds n-1).
	for _, nRaw := range []uint16{0, 1, 2, 127, 128} {
		f.Add(int64(4), nRaw, uint16(0), 0.9)
		f.Add(int64(5), nRaw, nRaw, 0.9)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, rRaw uint16, frac float64) {
		n := int(nRaw)%300 + 1
		r := int(rRaw) % n
		rng := rand.New(rand.NewSource(seed))
		a, b := randWalk(rng, n), randWalk(rng, n)
		ref := referenceDistance(a, b, r, math.Inf(1))
		for _, limit := range append(limits(rng, ref), ref*math.Abs(frac)) {
			if err := checkAgainstReference(a, b, r, limit); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func BenchmarkDTW256Band26(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randWalk(rng, 256)
	y := randWalk(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceExact(x, y, 26)
	}
}

// BenchmarkDistance128Band13 is the serve-dtw shape (128 points, a 10 %
// window). It cycles over 1 024 random walks: on one repeated pair the
// branch predictor learns the pair's path, which flatters a branchy DP.
func BenchmarkDistance128Band13(b *testing.B) {
	const n, r, count = 128, 13, 1024
	rng := rand.New(rand.NewSource(11))
	q := randWalk(rng, n)
	walks := make([][]float32, count)
	for i := range walks {
		walks[i] = randWalk(rng, n)
	}
	cells := 0
	for i := 0; i < n; i++ {
		cells += min(i+r, n-1) - max(i-r, 0) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += Distance(q, walks[i%count], r, math.Inf(1))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// BenchmarkCascade128Band13 is the abandoning path of the serve-dtw shape.
// Most candidates of a query are measured against a limit far below their
// DTW, so LB_Keogh rejects them or the DP abandons; that cost, not the
// full DP's, is what a query pays for most of its distances. The limit is
// the 10th percentile of the 1 024 walks' DTW to the query.
func BenchmarkCascade128Band13(b *testing.B) {
	const n, r, count = 128, 13, 1024
	rng := rand.New(rand.NewSource(11))
	q := randWalk(rng, n)
	walks := make([][]float32, count)
	dists := make([]float64, count)
	for i := range walks {
		walks[i] = randWalk(rng, n)
		dists[i] = DistanceExact(q, walks[i], r)
	}
	slices.Sort(dists)
	limit := dists[count/10]
	u, l := Envelope(q, r)
	ran := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, dp := Cascade(q, walks[i%count], l, u, r, limit)
		sink += d
		if dp {
			ran++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/candidate")
	b.ReportMetric(float64(ran)/float64(b.N), "dp_share")
}

var sink float64

func BenchmarkEnvelope256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randWalk(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Envelope(x, 26)
	}
}

// DistanceExact is Distance with no early abandoning.
func DistanceExact(a, b []float32, r int) float64 {
	return Distance(a, b, r, math.Inf(1))
}
