package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// arms runs f on the assembly path, where the CPU has one, and with the
// lane-by-lane fallback forced.
func arms(t *testing.T, f func(t *testing.T)) {
	saved := useAVX512
	defer func() { useAVX512 = saved }()
	for _, arm := range []struct {
		name string
		asm  bool
	}{{"avx512", true}, {"fallback", false}} {
		if arm.asm && !saved {
			t.Logf("%s: no AVX-512 F on this CPU", arm.name)
			continue
		}
		useAVX512 = arm.asm
		t.Run(arm.name, f)
	}
}

// checkBatch queues the candidates xs (at most Lanes) of query q under band
// r against addLimit, runs them against runLimit (≤ addLimit, as the bound
// only falls), and reports how the batch departs from Cascade: Add must
// queue exactly the candidates whose bound Cascade passes, and a result
// must be Cascade's bits where Cascade's DP, run against runLimit, is
// below it, and >= runLimit otherwise.
func checkBatch(b *Batch, q []float32, xs [][]float32, r int, addLimit, runLimit float64) error {
	u, l := Envelope(q, r)
	var queued []int
	for k, x := range xs {
		_, ran := Cascade(q, x, l, u, r, addLimit)
		if got := b.Add(x, l, u, addLimit); got != ran {
			return fmt.Errorf("n=%d r=%d limit=%v: lane %d queued=%v, Cascade ran=%v", len(q), r, addLimit, k, got, ran)
		}
		if ran {
			queued = append(queued, k)
		}
	}
	if b.Len() != len(queued) {
		return fmt.Errorf("Len = %d after %d queued", b.Len(), len(queued))
	}
	d := b.Run(q, r, runLimit)
	if len(d) != len(queued) || b.Len() != 0 {
		return fmt.Errorf("Run returned %d results for %d queued, Len after %d", len(d), len(queued), b.Len())
	}
	for lane, k := range queued {
		want, _ := Cascade(q, xs[k], l, u, r, runLimit)
		if want < runLimit && math.Float64bits(d[lane]) != math.Float64bits(want) {
			return fmt.Errorf("n=%d r=%d limits %v/%v: lane %d = %v, Cascade %v", len(q), r, addLimit, runLimit, lane, d[lane], want)
		}
		if want >= runLimit && d[lane] < runLimit {
			return fmt.Errorf("n=%d r=%d limits %v/%v: lane %d = %v below limit, Cascade %v", len(q), r, addLimit, runLimit, lane, d[lane], want)
		}
	}
	return nil
}

// batchCase draws a query and lanes candidates of n points, one in four a
// copy of an earlier lane.
func batchCase(rng *rand.Rand, n, lanes int) (q []float32, xs [][]float32) {
	q = randWalk(rng, n)
	for k := 0; k < lanes; k++ {
		if k > 0 && rng.Intn(4) == 0 {
			xs = append(xs, xs[rng.Intn(k)])
		} else {
			xs = append(xs, randWalk(rng, n))
		}
	}
	return q, xs
}

// batchLimits returns the limits a batch is checked against: unbounded, a
// random lane's own DTW and its neighbours, and fractions of it.
func batchLimits(rng *rand.Rand, q []float32, xs [][]float32, r int, frac float64) []float64 {
	own := DistanceExact(q, xs[rng.Intn(len(xs))], r)
	return []float64{math.Inf(1), own, math.Nextafter(own, math.Inf(1)), math.Nextafter(own, 0),
		own * rng.Float64(), own * (1 + rng.Float64()), own * math.Abs(frac)}
}

// checkBatchCase checks every pair of limits (add, run ≤ add) on one case.
func checkBatchCase(b *Batch, rng *rand.Rand, n, r, lanes int, frac float64) error {
	q, xs := batchCase(rng, n, lanes)
	lims := batchLimits(rng, q, xs, r, frac)
	for _, add := range lims {
		for _, run := range lims {
			if run > add {
				continue
			}
			if err := checkBatch(b, q, xs, r, add, run); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestBatchMatchesCascade checks an empty query, sweeps every band of every
// short length with the lane count cycling through 1…Lanes, and draws
// longer series, odd and even.
func TestBatchMatchesCascade(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		var b Batch
		if err := checkBatch(&b, nil, [][]float32{nil, nil}, 0, math.Inf(1), math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 24; n++ {
			for r := 0; r < n; r++ {
				if err := checkBatchCase(&b, rng, n, r, 1+(n+r)%Lanes, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		trials := 200
		if testing.Short() {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			n := 25 + rng.Intn(276)
			if err := checkBatchCase(&b, rng, n, rng.Intn(n), 1+rng.Intn(Lanes), rng.Float64()); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
}

func FuzzBatchMatchesCascade(f *testing.F) {
	f.Add(int64(1), uint16(127), uint16(13), uint8(7), 0.5)
	f.Add(int64(2), uint16(128), uint16(13), uint8(3), 0.9)
	// n = 1, 2, 3, 128 and 129 at r = 0 and r = n-1, full and one lane.
	for _, nRaw := range []uint16{0, 1, 2, 127, 128} {
		f.Add(int64(4), nRaw, uint16(0), uint8(0), 0.9)
		f.Add(int64(5), nRaw, nRaw, uint8(7), 0.9)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, rRaw uint16, lanesRaw uint8, frac float64) {
		n := int(nRaw)%300 + 1
		r := int(rRaw) % n
		lanes := int(lanesRaw)%Lanes + 1
		arms(t, func(t *testing.T) {
			var b Batch
			if err := checkBatchCase(&b, rand.New(rand.NewSource(seed)), n, r, lanes, frac); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// BenchmarkBatch128Band13 runs the serve-dtw shape (128 points, a 10 %
// window) a batch at a time: full DPs (limit +Inf) beside
// BenchmarkDistance128Band13, and the abandoning path at
// BenchmarkCascade128Band13's limit, the 10th percentile of the walks' DTW,
// with every candidate queued. ns/candidate is per DP.
func BenchmarkBatch128Band13(b *testing.B) {
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
	u, l := Envelope(q, r)
	for _, arm := range []struct {
		name  string
		limit float64
	}{{"full", math.Inf(1)}, {"abandon", dists[count/10]}} {
		b.Run(arm.name, func(b *testing.B) {
			var batch Batch
			inf := math.Inf(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < Lanes; k++ {
					batch.Add(walks[(i*Lanes+k)%count], l, u, inf)
				}
				for _, d := range batch.Run(q, r, arm.limit) {
					sink += d
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*Lanes), "ns/candidate")
		})
	}
}
