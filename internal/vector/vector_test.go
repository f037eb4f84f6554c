package vector

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randSeries(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestSquaredEuclideanKnownValues(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float64
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{1}, 0},
		{[]float32{0}, []float32{3}, 9},
		{[]float32{1, 2, 3}, []float32{4, 6, 3}, 9 + 16},
		{[]float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, []float32{0, 0, 0, 0, 0, 0, 0, 0, 0}, 9},
	}
	for i, c := range cases {
		if got := SquaredEuclidean(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: SquaredEuclidean = %v, want %v", i, got, c.want)
		}
		if got := ScalarSquaredEuclidean(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: ScalarSquaredEuclidean = %v, want %v", i, got, c.want)
		}
	}
}

func TestSquaredEuclideanMismatchedLengths(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 2}
	// Extra elements are ignored; only the common prefix is compared.
	if got := SquaredEuclidean(a, b); got != 0 {
		t.Errorf("SquaredEuclidean over common prefix = %v, want 0", got)
	}
	if got := SquaredEuclidean(b, a); got != 0 {
		t.Errorf("SquaredEuclidean (swapped) = %v, want 0", got)
	}
}

// The unrolled kernel must agree with the naive kernel on random input.
func TestUnrolledMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 64, 128, 255, 256} {
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		fast := SquaredEuclidean(a, b)
		slow := ScalarSquaredEuclidean(a, b)
		if diff := math.Abs(fast - slow); diff > 1e-6*(1+slow) {
			t.Errorf("n=%d: unrolled %v vs scalar %v (diff %v)", n, fast, slow, diff)
		}
	}
}

func TestUnrolledMatchesScalarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		r := rand.New(rand.NewSource(seed))
		a := randSeries(r, n)
		b := randSeries(r, n)
		fast := SquaredEuclidean(a, b)
		slow := ScalarSquaredEuclidean(a, b)
		return math.Abs(fast-slow) <= 1e-6*(1+slow)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestEarlyAbandonExactWhenUnderLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		exact := SquaredEuclidean(a, b)
		got := SquaredEuclideanEarlyAbandon(a, b, exact+1)
		if math.Abs(got-exact) > 1e-6*(1+exact) {
			t.Fatalf("trial %d: early-abandon with generous limit = %v, want %v", trial, got, exact)
		}
		gotScalar := ScalarSquaredEuclideanEarlyAbandon(a, b, exact+1)
		if math.Abs(gotScalar-exact) > 1e-6*(1+exact) {
			t.Fatalf("trial %d: scalar early-abandon = %v, want %v", trial, gotScalar, exact)
		}
	}
}

func TestEarlyAbandonReturnsAtLeastLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 32 + rng.Intn(300)
		a := randSeries(rng, n)
		b := randSeries(rng, n)
		exact := SquaredEuclidean(a, b)
		if exact == 0 {
			continue
		}
		limit := exact / 2
		got := SquaredEuclideanEarlyAbandon(a, b, limit)
		if got < limit {
			t.Fatalf("trial %d: abandoned result %v < limit %v", trial, got, limit)
		}
	}
}

// The abandon test runs after each whole 16-element block, never inside
// one: with limit 0, a 17-element input returns the first block's sum,
// 1²+…+16², not the full 1785.
func TestEarlyAbandonZeroLimit(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	b := make([]float32, len(a))
	if got := SquaredEuclideanEarlyAbandon(a, b, 0); got != 1496 {
		t.Errorf("limit 0: got %v, want the first block's 1496", got)
	}
}

// signedScaled returns n values of both signs whose magnitudes spread
// log-uniformly over 10^-exp..10^exp.
func signedScaled(rng *rand.Rand, n int, exp float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * math.Pow(10, exp*(2*rng.Float64()-1)))
	}
	return s
}

// checkMatchesReference compares SquaredEuclideanEarlyAbandon with
// earlyAbandonGo bit for bit, both ways round, at limits that complete,
// abandon on the last block, abandon midway, abandon on the first block
// and abandon at once.
func checkMatchesReference(t *testing.T, a, b []float32) {
	t.Helper()
	exact := earlyAbandonGo(a, b, math.Inf(1))
	limits := []float64{math.Inf(1), exact, math.Nextafter(exact, 0), exact / 2, 0}
	if n := min(len(a), len(b)); n >= 16 {
		limits = append(limits, earlyAbandonGo(a[:16], b[:16], math.Inf(1)))
	}
	for _, limit := range limits {
		for _, p := range [][2][]float32{{a, b}, {b, a}} {
			got := SquaredEuclideanEarlyAbandon(p[0], p[1], limit)
			want := earlyAbandonGo(p[0], p[1], limit)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("len %d/%d, limit %v: kernel %v (%#x), reference %v (%#x)",
					len(p[0]), len(p[1]), limit, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// The kernel in use returns bit for bit what the Go reference returns,
// abandoned partial sums included, at every length up to 300 (so every
// tail after the last block), from every offset 0–7 of either operand (so
// unaligned loads), against a longer second operand.
func TestEarlyAbandonMatchesReference(t *testing.T) {
	if Kernel() == "go" {
		t.Log("no AVX kernel on this CPU: the Go reference is compared with itself")
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 300; n++ {
		bufA := signedScaled(rng, n+8, 4)
		bufB := signedScaled(rng, n+8, 4)
		for offA := range 8 {
			for offB := range 8 {
				checkMatchesReference(t, bufA[offA:offA+n], bufB[offB:])
			}
		}
	}
}

func FuzzEarlyAbandonMatchesReference(f *testing.F) {
	for _, n := range []uint16{0, 1, 15, 16, 17, 31, 32, 128, 300} {
		for _, exp := range []uint8{0, 4} {
			f.Add(int64(n), n, uint8(n%8), uint8(n/2%8), exp)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, offA, offB, exp uint8) {
		rng := rand.New(rand.NewSource(seed))
		// |exp| ≤ 30 keeps every value finite, and so every sum non-NaN.
		size := int(n%1024) + 8
		bufA := signedScaled(rng, size, float64(exp%31))
		bufB := signedScaled(rng, size, float64(exp%31))
		checkMatchesReference(t, bufA[offA%8:], bufB[offB%8:])
	})
}

func TestSquaredEnvelopeDistance(t *testing.T) {
	x := []float32{0, 5, -5, 2}
	lo := []float32{-1, -1, -1, -1}
	hi := []float32{1, 1, 1, 1}
	// 0 inside; 5 above by 4 (16); -5 below by 4 (16); 2 above by 1 (1).
	want := 16.0 + 16.0 + 1.0
	if got := SquaredEnvelopeDistance(x, lo, hi); math.Abs(got-want) > 1e-9 {
		t.Errorf("SquaredEnvelopeDistance = %v, want %v", got, want)
	}
}

func TestSquaredEnvelopeDistanceInsideIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100
	x := randSeries(rng, n)
	lo := make([]float32, n)
	hi := make([]float32, n)
	for i := range x {
		lo[i] = x[i] - 1
		hi[i] = x[i] + 1
	}
	if got := SquaredEnvelopeDistance(x, lo, hi); got != 0 {
		t.Errorf("distance inside envelope = %v, want 0", got)
	}
}

func TestSquaredEnvelopeDistanceEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		x := randSeries(rng, n)
		q := randSeries(rng, n)
		lo := make([]float32, n)
		hi := make([]float32, n)
		for i := range q {
			lo[i] = q[i] - 0.1
			hi[i] = q[i] + 0.1
		}
		exact := SquaredEnvelopeDistance(x, lo, hi)
		got := SquaredEnvelopeDistanceEarlyAbandon(x, lo, hi, exact+1)
		if math.Abs(got-exact) > 1e-6*(1+exact) {
			t.Fatalf("trial %d: envelope early-abandon = %v, want %v", trial, got, exact)
		}
		if exact > 0 {
			abandoned := SquaredEnvelopeDistanceEarlyAbandon(x, lo, hi, exact/2)
			if abandoned < exact/2 {
				t.Fatalf("trial %d: abandoned %v < limit %v", trial, abandoned, exact/2)
			}
		}
	}
}

// The prefix kernel's running sums end at the envelope distance, and its
// abandoned sum reaches the limit.
func TestEnvelopePrefixEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		x, q := randSeries(rng, n), randSeries(rng, n)
		lo, hi := make([]float32, n), make([]float32, n)
		for i := range q {
			lo[i], hi[i] = q[i]-0.1, q[i]+0.1
		}
		exact := SquaredEnvelopeDistance(x, lo, hi)
		prefix := make([]float64, n)
		got := EnvelopePrefixEarlyAbandon(x, lo, hi, prefix, math.Inf(1))
		if got != prefix[n-1] || math.Abs(got-exact) > 1e-9*(1+exact) {
			t.Fatalf("trial %d: prefix sum %v (last %v), envelope distance %v", trial, got, prefix[n-1], exact)
		}
		for i := 1; i < n; i++ {
			if prefix[i] < prefix[i-1] {
				t.Fatalf("trial %d: prefix decreases at %d", trial, i)
			}
		}
		if exact > 0 {
			if abandoned := EnvelopePrefixEarlyAbandon(x, lo, hi, prefix, exact/2); abandoned < exact/2 {
				t.Fatalf("trial %d: abandoned %v < limit %v", trial, abandoned, exact/2)
			}
		}
	}
}

// Envelope distance degenerates to squared ED when the envelope collapses
// to a single series.
func TestEnvelopeDistanceDegeneratesToED(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		x := randSeries(rng, n)
		q := randSeries(rng, n)
		env := SquaredEnvelopeDistance(x, q, q)
		ed := SquaredEuclidean(x, q)
		if math.Abs(env-ed) > 1e-6*(1+ed) {
			t.Fatalf("trial %d: collapsed envelope %v != ED %v", trial, env, ed)
		}
	}
}

func TestEnvelopeLowerBoundsED(t *testing.T) {
	// For any envelope containing q, env distance <= ED(x, q).
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		x := randSeries(r, n)
		q := randSeries(r, n)
		lo := make([]float32, n)
		hi := make([]float32, n)
		for i := range q {
			w := float32(r.Float64())
			lo[i] = q[i] - w
			hi[i] = q[i] + w
		}
		return SquaredEnvelopeDistance(x, lo, hi) <= SquaredEuclidean(x, q)+1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkSquaredEuclidean256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SquaredEuclidean(x, y)
	}
}

func BenchmarkScalarSquaredEuclidean256(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarSquaredEuclidean(x, y)
	}
}

// BenchmarkScanRoofline asks whether the Euclidean scan is bound by memory
// bandwidth or by arithmetic. With 1 and 2 goroutines, each reading 128 MB
// of its own, it reports GB/s for three arms: a plain streaming read; the
// early-abandon kernel with an out-of-distribution query, whose limit (the
// nearest distance in a sample) abandons little, as a hard query's scan
// does; and the same kernel cycled over a 128 KB slice that stays in
// cache. A scan that streams at the read's rate, well below its in-cache
// rate, sits at the bandwidth ceiling, and a faster kernel cannot move it.
func BenchmarkScanRoofline(b *testing.B) {
	const length, streamPoints, cachePoints = 128, 32 << 20, 32 << 10
	rng := rand.New(rand.NewSource(12))
	var data [2][]float32
	for w := range data {
		data[w] = make([]float32, streamPoints)
		for i := range data[w] {
			data[w][i] = rng.Float32()
		}
	}
	query := make([]float32, length)
	for i := range query {
		query[i] = 4 + rng.Float32()
	}
	limit := math.Inf(1)
	for i := 0; i < 4096; i++ {
		limit = min(limit, SquaredEuclidean(data[0][i*length:(i+1)*length], query))
	}
	scanWith := func(kernel func(a, b []float32, limit float64) float64) func([]float32) float64 {
		return func(xs []float32) (s float64) {
			for i := 0; i+length <= len(xs); i += length {
				s += kernel(xs[i:i+length], query, limit)
			}
			return s
		}
	}
	inCache := func(scan func([]float32) float64) func([]float32) float64 {
		return func(xs []float32) (s float64) {
			for range streamPoints / cachePoints {
				s += scan(xs[:cachePoints])
			}
			return s
		}
	}
	scan, scanRef := scanWith(SquaredEuclideanEarlyAbandon), scanWith(earlyAbandonGo)
	arms := []struct {
		name string
		run  func(xs []float32) float64
	}{
		{"memread", func(xs []float32) float64 {
			// Integer adds of the bit patterns: the read, not a float
			// add chain, sets the pace.
			var s0, s1, s2, s3 uint32
			for i := 0; i+4 <= len(xs); i += 4 {
				s0 += math.Float32bits(xs[i])
				s1 += math.Float32bits(xs[i+1])
				s2 += math.Float32bits(xs[i+2])
				s3 += math.Float32bits(xs[i+3])
			}
			return float64(s0 ^ s1 ^ s2 ^ s3)
		}},
		{"scan", scan},
		{"scan_in_cache", inCache(scan)},
		{"scan_ref", scanRef},
		{"scan_ref_in_cache", inCache(scanRef)},
	}
	for _, arm := range arms {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", arm.name, workers), func(b *testing.B) {
				sums := make([]float64, workers)
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							sums[w] += arm.run(data[w])
						}()
					}
					wg.Wait()
				}
				bytes := float64(4 * streamPoints * workers * b.N)
				b.ReportMetric(bytes/float64(b.Elapsed().Nanoseconds()), "GB/s")
			})
		}
	}
}

// ScalarSquaredEuclidean is the deliberately naive SISD version of
// SquaredEuclidean used by the ParIS-SISD ablation.
func ScalarSquaredEuclidean(a, b []float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}
