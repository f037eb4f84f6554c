package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vector"
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

// stageCase is one query, its band and envelope, and its candidates, with
// each candidate's Cascade verdict kept per limit.
type stageCase struct {
	q, u, l []float32
	r       int
	xs      [][]float32
	memo    map[[2]uint64]cascadeResult
}

type cascadeResult struct {
	d   float64
	ran bool
}

func newStageCase(q []float32, xs [][]float32, r int) *stageCase {
	u, l := Envelope(q, r)
	return &stageCase{q: q, u: u, l: l, r: r, xs: xs, memo: map[[2]uint64]cascadeResult{}}
}

func (c *stageCase) cascade(k int, limit float64) (float64, bool) {
	key := [2]uint64{uint64(k), math.Float64bits(limit)}
	res, ok := c.memo[key]
	if !ok {
		res.d, res.ran = Cascade(c.q, c.xs[k], c.l, c.u, c.r, limit)
		c.memo[key] = res
	}
	return res.d, res.ran
}

// prefix returns candidate k's full LB_Keogh prefix sums.
func (c *stageCase) prefix(k int) []float64 {
	p := make([]float64, len(c.q))
	vector.EnvelopePrefixEarlyAbandon(c.xs[k], c.l, c.u, p, math.Inf(1))
	return p
}

// slabPrefix reads lane l's prefix sum at column j of slab s in the layout
// the arm writes.
func (b *Batch) slabPrefix(s, l, j, n int) float64 {
	if useAVX512 {
		return b.slabs[s][j*Lanes+l]
	}
	return b.slabs[s][l*n+j]
}

// checkStage drives the case's candidates through b as the DTW kernel's
// measure and flush do: Add each, and at Lanes pending and at the end
// Bound them against the pass's limit (sched[pass], the last entry
// repeating) and Fill, running the queue each time it fills and once at
// the end, at min(run, the pass's limit). It reports how the batch departs
// from Cascade: the DP queue must get exactly the candidates Cascade runs
// at their pass's limit, in order, each with its scalar prefix sums
// bitwise; a result must be Cascade's bits where Cascade, run against the
// run's limit, is below it, and >= that limit otherwise.
func checkStage(b *Batch, c *stageCase, sched []float64, run float64) error {
	n := len(c.q)
	var want []int // what Cascade runs, not yet met in a Run
	runQueue := func(limit float64, full bool) error {
		for l := 0; l < b.n; l++ {
			k, s, lane := int(b.id[l]), int(b.at[l]/Lanes), int(b.at[l]%Lanes)
			for j, p := range c.prefix(k) {
				if got := b.slabPrefix(s, lane, j, n); math.Float64bits(got) != math.Float64bits(p) {
					return fmt.Errorf("candidate %d: prefix %d = %v, scalar %v", k, j, got, p)
				}
			}
		}
		d, id := b.Run(c.q, c.r, limit)
		if full != (len(d) == Lanes) || len(d) > len(want) {
			return fmt.Errorf("a run of %d (queue full: %v) with %d left to run", len(d), full, len(want))
		}
		for l, k := range want[:len(d)] {
			if int(id[l]) != k {
				return fmt.Errorf("queue slot %d holds candidate %d, Cascade runs %d", l, id[l], k)
			}
			ref, _ := c.cascade(k, limit)
			if ref < limit && math.Float64bits(d[l]) != math.Float64bits(ref) {
				return fmt.Errorf("limit %v: candidate %d = %v, Cascade %v", limit, k, d[l], ref)
			}
			if ref >= limit && d[l] < limit {
				return fmt.Errorf("limit %v: candidate %d = %v below limit, Cascade %v", limit, k, d[l], ref)
			}
		}
		want = want[len(d):]
		return nil
	}
	var limit float64
	for lo, pass := 0, 0; lo < len(c.xs); lo, pass = lo+Lanes, pass+1 {
		limit = sched[min(pass, len(sched)-1)]
		hi := min(lo+Lanes, len(c.xs))
		for k := lo; k < hi; k++ {
			if full := b.Add(c.xs[k], int32(k)); full != (k-lo == Lanes-1) {
				return fmt.Errorf("Add of pending candidate %d reported full=%v", k-lo+1, full)
			}
			if _, ran := c.cascade(k, limit); ran {
				want = append(want, k)
			}
		}
		b.Bound(c.l, c.u, limit)
		for b.Fill() {
			if err := runQueue(min(run, limit), true); err != nil {
				return fmt.Errorf("pass %d (limit %v): %w", pass, limit, err)
			}
		}
	}
	if err := runQueue(min(run, limit), false); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if len(want) != 0 {
		return fmt.Errorf("Cascade runs %v, never queued", want)
	}
	return nil
}

// batchCase draws a query and count candidates of n points, one in four a
// copy of an earlier one.
func batchCase(rng *rand.Rand, n, count int) (q []float32, xs [][]float32) {
	q = randWalk(rng, n)
	for k := 0; k < count; k++ {
		if k > 0 && rng.Intn(4) == 0 {
			xs = append(xs, xs[rng.Intn(k)])
		} else {
			xs = append(xs, randWalk(rng, n))
		}
	}
	return q, xs
}

// lbEdge returns the limits around the one at which a bound of lb is
// reached: lb/slack and its neighbours, one ulp apart.
func lbEdge(lb float64) []float64 {
	at := lb / slack
	return []float64{math.Nextafter(at, 0), at, math.Nextafter(at, math.Inf(1))}
}

// batchLimits returns the limits a case is checked against: 0, unbounded,
// a random candidate's own DTW and its neighbours, fractions of it, and
// the edges of another's LB_Keogh bound, whole and at its first test
// (column 7).
func batchLimits(rng *rand.Rand, c *stageCase, frac float64) []float64 {
	own := DistanceExact(c.q, c.xs[rng.Intn(len(c.xs))], c.r)
	lims := []float64{0, math.Inf(1), own, math.Nextafter(own, math.Inf(1)), math.Nextafter(own, 0),
		own * rng.Float64(), own * (1 + rng.Float64()), own * math.Abs(frac)}
	p := c.prefix(rng.Intn(len(c.xs)))
	if len(p) > 0 {
		lims = append(lims, lbEdge(p[len(p)-1])...)
	}
	if len(p) > 8 {
		lims = append(lims, lbEdge(p[7])...)
	}
	return lims
}

// keepLeast returns a pass limit under which the pass over candidates
// [lo, lo+Lanes) keeps only its least-bound ones.
func keepLeast(c *stageCase, lo int) float64 {
	least := math.Inf(1)
	for k := lo; k < min(lo+Lanes, len(c.xs)); k++ {
		if p := c.prefix(k); len(p) > 0 {
			least = min(least, p[len(p)-1])
		}
	}
	return math.Nextafter(least/slack, math.Inf(1)) * (1 + 1e-12)
}

// carrySchedules returns two schedules whose first pass keeps only the
// first group's least-bound candidates. Under the first, the next two
// passes keep none, so those survivors wait in the DP queue across two
// passes that write prefix sums of their own. Under the second, every
// later pass keeps all, so the queue fills, and runs, in the middle of a
// pass's survivors.
func carrySchedules(c *stageCase) [2][]float64 {
	few := keepLeast(c, 0)
	return [2][]float64{{few, 0, 0, math.Inf(1)}, {few, math.Inf(1)}}
}

// checkBatchCase draws a case of count candidates and checks it under
// every pass limit with every run limit at or below it, then under the
// carrying schedules and a random one.
func checkBatchCase(b *Batch, rng *rand.Rand, n, r, count int, frac float64) error {
	q, xs := batchCase(rng, n, count)
	c := newStageCase(q, xs, r)
	lims := batchLimits(rng, c, frac)
	check := func(sched []float64, run float64) error {
		if err := checkStage(b, c, sched, run); err != nil {
			return fmt.Errorf("n=%d r=%d %d candidates, pass limits %v, run limit %v: %w", n, r, count, sched, run, err)
		}
		return nil
	}
	for _, pass := range lims {
		for _, run := range lims {
			if run <= pass {
				if err := check([]float64{pass}, run); err != nil {
					return err
				}
			}
		}
	}
	random := make([]float64, (count+Lanes-1)/Lanes)
	for i := range random {
		random[i] = lims[rng.Intn(len(lims))]
	}
	carry := carrySchedules(c)
	for _, run := range []float64{math.Inf(1), lims[2], lims[rng.Intn(len(lims))]} {
		for _, sched := range [][]float64{carry[0], carry[1], random} {
			if err := check(sched, run); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestBatchMatchesCascade checks an empty query, sweeps every band of every
// short length with 1 to 3·Lanes candidates (full passes and a partial
// one at the flush), checks the lengths on either side of 128, and draws
// longer series, odd and even.
func TestBatchMatchesCascade(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		var b Batch
		empty := newStageCase(nil, [][]float32{nil, nil}, 0)
		if err := checkStage(&b, empty, []float64{math.Inf(1)}, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 24; n++ {
			for r := 0; r < n; r++ {
				if err := checkBatchCase(&b, rng, n, r, 1+(n*r+n)%(3*Lanes), 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range []int{127, 128, 129} {
			for _, r := range []int{0, 13, n - 1} {
				for _, count := range []int{Lanes, 2*Lanes + 3, 3 * Lanes} {
					if err := checkBatchCase(&b, rng, n, r, count, 0.5); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		trials := 200
		if testing.Short() {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			n := 25 + rng.Intn(276)
			if err := checkBatchCase(&b, rng, n, rng.Intn(n), 1+rng.Intn(3*Lanes), rng.Float64()); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	})
}

// TestBatchSlabRing keeps the DP queue short of full for as long as it
// can: fifteen passes that alternate between keeping only their
// least-bound candidates and keeping none. The first pass's survivor waits
// in the queue while seven more passes keep one each and seven keep none,
// so a ring of fewer than Lanes slabs, or one that moves on after a pass
// that keeps nothing, hands its prefix sums to a later pass.
func TestBatchSlabRing(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		for _, n := range []int{1, 9, 128} {
			q, xs := batchCase(rng, n, 15*Lanes)
			c := newStageCase(q, xs, n/10)
			sched := make([]float64, 15)
			for pass := 0; pass < len(sched); pass += 2 {
				sched[pass] = keepLeast(c, pass*Lanes)
			}
			for _, run := range []float64{math.Inf(1), DistanceExact(q, xs[0], c.r)} {
				var b Batch
				if err := checkStage(&b, c, sched, run); err != nil {
					t.Fatalf("n=%d run limit %v: %v", n, run, err)
				}
			}
		}
	})
}

// TestBoundMatchesEnvelopePrefix checks one pass against the scalar prefix
// directly: at limits on either side of each lane's own bound, whole and
// at every tested column, a lane is kept exactly when
// vector.EnvelopePrefixEarlyAbandon's sum stays below the limit, and a kept
// lane's prefix sums are bitwise the scalar ones.
func TestBoundMatchesEnvelopePrefix(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{1, 7, 8, 9, 16, 17, 127, 128, 129} {
			for _, pending := range []int{1, Lanes - 1, Lanes} {
				q, xs := batchCase(rng, n, pending)
				c := newStageCase(q, xs, rng.Intn(n))
				lims := []float64{0, math.Inf(1)}
				for k := range xs {
					p := c.prefix(k)
					for j := 7; j < n; j += 8 {
						lims = append(lims, lbEdge(p[j])...)
					}
					lims = append(lims, lbEdge(p[n-1])...)
				}
				for _, limit := range lims {
					var b Batch
					for k, x := range xs {
						b.Add(x, int32(k))
					}
					b.Bound(c.l, c.u, limit)
					pass := b.pass
					var kept []int
					for k, x := range xs {
						scratch := make([]float64, n)
						if vector.EnvelopePrefixEarlyAbandon(x, c.l, c.u, scratch, limit*slack) < limit*slack {
							kept = append(kept, k)
						}
					}
					for _, k := range kept {
						for j, p := range c.prefix(k) {
							if got := b.slabPrefix(pass, k, j, n); math.Float64bits(got) != math.Float64bits(p) {
								t.Fatalf("n=%d limit %v: lane %d prefix %d = %v, scalar %v", n, limit, k, j, got, p)
							}
						}
					}
					var got []int
					run := func() {
						_, id := b.Run(q, c.r, limit)
						for _, k := range id {
							got = append(got, int(k))
						}
					}
					for b.Fill() {
						run()
					}
					if run(); !slices.Equal(got, kept) {
						t.Fatalf("n=%d %d pending, limit %v: kept %v, scalar %v", n, pending, limit, got, kept)
					}
				}
			}
		}
	})
}

func FuzzBatchMatchesCascade(f *testing.F) {
	f.Add(int64(1), uint16(127), uint16(13), uint8(7), 0.5)
	f.Add(int64(2), uint16(128), uint16(13), uint8(19), 0.9)
	// n = 1, 7, 8, 9, 127, 128 and 129 at r = 0 and r = n-1: one lane,
	// two passes and a partial one, three full passes.
	for _, nRaw := range []uint16{0, 6, 7, 8, 126, 127, 128} {
		f.Add(int64(4), nRaw, uint16(0), uint8(0), 0.9)
		f.Add(int64(5), nRaw, nRaw, uint8(2*Lanes+4), 0.9)
		f.Add(int64(6), nRaw, uint16(13), uint8(3*Lanes-1), 0.3)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, rRaw uint16, countRaw uint8, frac float64) {
		n := int(nRaw)%300 + 1
		r := int(rRaw) % n
		count := int(countRaw)%(3*Lanes) + 1
		arms(t, func(t *testing.T) {
			var b Batch
			if err := checkBatchCase(&b, rand.New(rand.NewSource(seed)), n, r, count, frac); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// BenchmarkBatch128Band13 runs the serve-dtw shape (128 points, a 10 %
// window) through a Batch, Lanes candidates a pass, in ns per candidate:
//   - full and abandon: the DPs, every candidate queued, at limit +Inf
//     (beside BenchmarkDistance128Band13) and at
//     BenchmarkCascade128Band13's limit, the 10th percentile of the walks'
//     DTW; each includes the candidates' full LB_Keogh pass;
//   - stage: the whole stage at that limit, as a query runs it (pending,
//     the bound pass, the survivors' DPs);
//   - lb/lanes and lb/scalar: the bound pass alone, on the assembly path
//     and with the lane-by-lane fallback forced, unbounded (full) and at
//     that limit (abandon).
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
	inf, cut := math.Inf(1), dists[count/10]
	perCandidate := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*Lanes), "ns/candidate")
	}
	stage := func(name string, pass, run float64) {
		b.Run(name, func(b *testing.B) {
			var batch Batch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < Lanes; k++ {
					batch.Add(walks[(i*Lanes+k)%count], int32(k))
				}
				batch.Bound(l, u, pass)
				for batch.Fill() {
					d, _ := batch.Run(q, r, run)
					sink += d[0]
				}
			}
			perCandidate(b)
		})
	}
	stage("full", inf, inf)
	stage("abandon", inf, cut)
	stage("stage", cut, cut)
	saved := useAVX512
	defer func() { useAVX512 = saved }()
	for _, arm := range []struct {
		name string
		asm  bool
	}{{"lanes", true}, {"scalar", false}} {
		for _, lim := range []struct {
			name  string
			limit float64
		}{{"full", inf}, {"abandon", cut}} {
			b.Run("lb/"+arm.name+"/"+lim.name, func(b *testing.B) {
				if arm.asm && !saved {
					b.Skip("no AVX-512 F on this CPU")
				}
				useAVX512 = arm.asm
				var batch Batch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < Lanes; k++ {
						batch.Add(walks[(i*Lanes+k)%count], int32(k))
					}
					batch.Bound(l, u, lim.limit)
					batch.keep, batch.np = 0, 0 // this arm times the pass alone
				}
				perCandidate(b)
			})
		}
	}
}
