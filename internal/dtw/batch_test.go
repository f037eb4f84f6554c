package dtw

import (
	"fmt"
	"math"
	"math/bits"
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
	traces  map[int]trace
}

type cascadeResult struct {
	d   float64
	ran bool
}

func newStageCase(q []float32, xs [][]float32, r int) *stageCase {
	u, l := Envelope(q, r)
	return &stageCase{q: q, u: u, l: l, r: r, xs: xs, memo: map[[2]uint64]cascadeResult{}, traces: map[int]trace{}}
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

// slabPrefix reads pending slot l's prefix sum at column j in the layout
// the arm writes.
func (b *Batch) slabPrefix(l, j, n int) float64 {
	if useAVX512 {
		return b.slab[j*Lanes+l]
	}
	return b.slab[l*n+j]
}

// trace returns what Cascade tests candidate k's DP against, from the
// reference DP: one bound per row pair before its last (row 2m+1's
// minimum plus the LB_Keogh of the columns beyond its band), and its
// distance.
func (c *stageCase) trace(k int) ([]float64, float64) {
	if t, ok := c.traces[k]; ok {
		return t.bounds, t.d
	}
	q, x, r, n := c.q, c.xs[k], c.r, len(c.q)
	inf := math.Inf(1)
	prev, cur := make([]float64, n+1), make([]float64, n+1) // column j at j+1
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	mins := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		mins[i] = inf
		for j := max(i-r, 0); j <= min(i+r, n-1); j++ {
			d := float64(q[i]) - float64(x[j])
			cur[j+1] = min(prev[j+1], prev[j], cur[j]) + d*d
			mins[i] = min(mins[i], cur[j+1])
		}
		prev, cur = cur, prev
	}
	p := c.prefix(k)
	bounds := make([]float64, (n-1)/2)
	for m := range bounds {
		bounds[m] = mins[2*m+1] + (p[n-1] - p[min(2*m+1+r, n-1)])
	}
	c.traces[k] = trace{bounds, prev[n]}
	return bounds, prev[n]
}

type trace struct {
	bounds []float64
	d      float64
}

// laneModel replays the lanes' schedule on the candidates' traces: each
// call enters the free lanes, then runs row pairs while every lane is busy
// (or, draining, while any is); after a pair, a lane whose last pair is
// done stops and is reported below the limit, any other stops once its
// pair's bound reaches the widened limit, and the stopped lanes take the
// queued candidates in lane order. A call returns after a pair that
// reports. It is the reference the batch's calls are held to, on both
// arms.
type laneModel struct {
	c     *stageCase
	queue []int
	k, m  [Lanes]int
	act   uint64
	cov   *coverage
	pairs int // lane row pairs run
}

func (mo *laneModel) refill(stop uint64) {
	for l := 0; l < Lanes; l++ {
		if stop&(1<<l) == 0 {
			continue
		}
		if len(mo.queue) == 0 {
			mo.act &^= 1 << l
			continue
		}
		mo.k[l], mo.m[l], mo.queue = mo.queue[0], 0, mo.queue[1:]
		mo.act |= 1 << l
	}
}

func (mo *laneModel) run(limit float64, drain bool) (ds []float64, ks []int) {
	mo.refill((1<<Lanes - 1) &^ mo.act)
	for mo.act != 0 && (drain || mo.act == 1<<Lanes-1) {
		mo.pairs += bits.OnesCount64(mo.act)
		var stop uint64
		rows := map[int]bool{}
		for l := 0; l < Lanes; l++ {
			if mo.act&(1<<l) == 0 {
				continue
			}
			rows[mo.m[l]] = true
			bounds, d := mo.c.trace(mo.k[l])
			switch {
			case mo.m[l] == len(bounds):
				stop |= 1 << l
				if d < limit {
					ds, ks = append(ds, d), append(ks, mo.k[l])
				}
			case bounds[mo.m[l]] >= limit*slack:
				stop |= 1 << l
			default:
				mo.m[l]++
			}
		}
		if len(rows) > 1 {
			mo.cov.mixedRows = true
		}
		mo.refill(stop)
		if len(ds) > 0 {
			if mo.act&^stop != 0 {
				mo.cov.midFlight = true
			}
			return ds, ks
		}
	}
	return nil, nil
}

// rowsPerDP replays a stream of the case's candidates, bounded and run at
// limit as BenchmarkBatch128Band13's stream arms run them, through the
// lanes' schedule, and returns the mean rows a queued candidate's DP runs.
func rowsPerDP(c *stageCase, limit float64) float64 {
	mo := &laneModel{c: c, cov: &coverage{}}
	dps := 0
	drain := func(flush bool) {
		for {
			if d, _ := mo.run(limit, flush); len(d) == 0 {
				return
			}
		}
	}
	for lo := 0; lo < len(c.xs); lo += Lanes {
		for k := lo; k < min(lo+Lanes, len(c.xs)); k++ {
			if _, ran := c.cascade(k, limit); ran {
				mo.queue = append(mo.queue, k)
				dps++
			}
		}
		drain(false)
	}
	drain(true)
	return 2 * float64(mo.pairs) / float64(dps)
}

// coverage records which of the schedule's edges a test reached.
type coverage struct {
	mixedRows, midFlight, lowerResume, rebase bool
	flushWith                                 [Lanes]bool // lanes in flight when a flush began
}

// checkStage drives the case's candidates through b as the DTW kernel's
// measure and flush do: Add each; at Lanes pending, Bound them against the
// pass's limit (sched[pass], the last entry repeating) and Run until a
// call returns nothing; at the end Bound what is pending and Flush. Each
// run starts at min(run, the pass's limit); with tighten, every result
// lowers it, as a 1-NN bound would. It reports how the batch departs from
// Cascade and from the lanes' schedule: the queue must get exactly the
// candidates Cascade runs at the pass's limit, each with its scalar
// prefix sums bitwise; every call must return what laneModel returns, in
// order, each result Cascade's bits and below the call's limit.
func checkStage(b *Batch, c *stageCase, sched []float64, run float64, tighten bool, cov *coverage) error {
	mo := &laneModel{c: c, cov: cov}
	var pending []int
	bound := func(limit float64) error {
		kept := b.Bound(c.l, c.u, limit)
		var want []int
		for slot, k := range pending {
			if _, ran := c.cascade(k, limit); ran {
				want = append(want, k)
				if b.queue&(1<<slot) == 0 {
					return fmt.Errorf("limit %v: candidate %d not queued, Cascade runs it", limit, k)
				}
				for j, p := range c.prefix(k) {
					if got := b.slabPrefix(slot, j, len(c.q)); math.Float64bits(got) != math.Float64bits(p) {
						return fmt.Errorf("candidate %d: prefix %d = %v, scalar %v", k, j, got, p)
					}
				}
			}
		}
		if kept != len(want) || bits.OnesCount64(b.queue) != kept {
			return fmt.Errorf("limit %v: %d queued (%d reported), Cascade runs %v", limit, bits.OnesCount64(b.queue), kept, want)
		}
		mo.queue = append(mo.queue, want...)
		pending = pending[:0]
		return nil
	}
	drain := func(limit float64, flush bool) error {
		if flush {
			cov.flushWith[bits.OnesCount64(b.act)] = true
		}
		for first := true; ; first = false {
			t, busy := b.t, b.act
			var d []float64
			var id []int32
			if flush {
				d, id = b.Flush(c.q, c.r, limit)
			} else {
				d, id = b.Run(c.q, c.r, limit)
			}
			if useAVX512 && busy&b.act != 0 && b.t < t {
				cov.rebase = true
			}
			wd, wk := mo.run(limit, flush)
			if len(d) != len(wd) {
				return fmt.Errorf("limit %v: a call returned %d results, the lanes' schedule %d (%v)", limit, len(d), len(wd), wk)
			}
			if len(d) == 0 {
				if b.queue != 0 || flush && b.act != 0 {
					return fmt.Errorf("limit %v: a call returned nothing with the queue %b and lanes %b", limit, b.queue, b.act)
				}
				return nil
			}
			if !first && busy != 0 {
				cov.lowerResume = cov.lowerResume || tighten
			}
			call := limit
			for i, k := range wk {
				if int(id[i]) != k || math.Float64bits(d[i]) != math.Float64bits(wd[i]) {
					return fmt.Errorf("limit %v: result %d is candidate %d at %v, the lanes' schedule %d at %v", limit, i, id[i], d[i], k, wd[i])
				}
				if ref := DistanceExact(c.q, c.xs[k], c.r); math.Float64bits(d[i]) != math.Float64bits(ref) || d[i] >= call {
					return fmt.Errorf("limit %v: candidate %d = %v, Cascade %v", call, k, d[i], ref)
				}
				if tighten {
					limit = min(limit, d[i])
				}
			}
		}
	}
	var limit float64
	for lo, pass := 0, 0; lo < len(c.xs); lo, pass = lo+Lanes, pass+1 {
		limit = sched[min(pass, len(sched)-1)]
		hi := min(lo+Lanes, len(c.xs))
		for k := lo; k < hi; k++ {
			if full := b.Add(c.xs[k], int32(k)); full != (k-lo == Lanes-1) {
				return fmt.Errorf("Add of pending candidate %d reported full=%v", k-lo+1, full)
			}
			pending = append(pending, k)
		}
		if hi-lo < Lanes {
			break // the flush takes the partial pass
		}
		if err := bound(limit); err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		if err := drain(min(run, limit), false); err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
	}
	if err := bound(limit); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err := drain(min(run, limit), true); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if b.act != 0 || b.queue != 0 || mo.act != 0 || len(mo.queue) != 0 {
		return fmt.Errorf("after the flush: lanes %b, queue %b", b.act, b.queue)
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
// passes keep none, so those survivors wait in their lanes across two
// passes that rewrite the prefix slab. Under the second, every later pass
// keeps all, so the lanes run full and refill from a long queue.
func carrySchedules(c *stageCase) [2][]float64 {
	few := keepLeast(c, 0)
	return [2][]float64{{few, 0, 0, math.Inf(1)}, {few, math.Inf(1)}}
}

// checkBatchCase draws a case of count candidates and checks it under
// every pass limit with every run limit at or below it, then under the
// carrying schedules and a random one, with the run limit held and
// tightened by every result.
func checkBatchCase(b *Batch, rng *rand.Rand, n, r, count int, frac float64, cov *coverage) error {
	q, xs := batchCase(rng, n, count)
	c := newStageCase(q, xs, r)
	lims := batchLimits(rng, c, frac)
	check := func(sched []float64, run float64, tighten bool) error {
		if err := checkStage(b, c, sched, run, tighten, cov); err != nil {
			return fmt.Errorf("n=%d r=%d %d candidates, pass limits %v, run limit %v, tighten %v: %w", n, r, count, sched, run, tighten, err)
		}
		return nil
	}
	for _, pass := range lims {
		for _, run := range lims {
			if run <= pass {
				if err := check([]float64{pass}, run, false); err != nil {
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
		for _, sched := range [][]float64{carry[0], carry[1], random, {math.Inf(1)}} {
			for _, tighten := range []bool{false, true} {
				if err := check(sched, run, tighten); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TestBatchMatchesCascade checks an empty query, sweeps every band of every
// short length with 1 to 6·Lanes candidates (full passes and a partial
// one at the flush), checks n ∈ {1, 2, 7, 8, 9, 127, 128, 129} at r = 0,
// 13 and n-1, and draws longer series, odd and even. It also demands that
// the cases reached the schedule's edges: lanes at different rows, a DP
// that finishes below the limit with others in flight and a resume at a
// lower limit, a flush with 1 to 7 lanes in flight, and, with AVX-512 F, a
// ring moved back to its start with a DP in flight.
func TestBatchMatchesCascade(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		var b Batch
		var cov coverage
		empty := newStageCase(nil, [][]float32{nil, nil}, 0)
		if err := checkStage(&b, empty, []float64{math.Inf(1)}, math.Inf(1), false, &cov); err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 24; n++ {
			for r := 0; r < n; r++ {
				if err := checkBatchCase(&b, rng, n, r, 1+(n*r+n)%(6*Lanes), 0.5, &cov); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range []int{1, 2, 7, 8, 9, 127, 128, 129} {
			for _, r := range []int{0, min(13, n-1), n - 1} {
				for _, count := range []int{Lanes, 2*Lanes + 3, 5 * Lanes} {
					if err := checkBatchCase(&b, rng, n, r, count, 0.5, &cov); err != nil {
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
			if err := checkBatchCase(&b, rng, n, rng.Intn(n), 1+rng.Intn(6*Lanes), rng.Float64(), &cov); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if !cov.mixedRows || !cov.midFlight || !cov.lowerResume || useAVX512 && !cov.rebase {
			t.Fatalf("edges not reached: %+v", cov)
		}
		for lanes, seen := range cov.flushWith[1:] {
			if !seen {
				t.Fatalf("no flush began with %d lanes in flight", lanes+1)
			}
		}
	})
}

// TestBatchSlabRing keeps DPs in flight while later passes rewrite the one
// prefix slab: fifteen passes that alternate between keeping only their
// least-bound candidates and keeping none, so the first pass's survivor
// waits in its lane while seven more passes keep one each and seven keep
// none. A lane that read its suffix sums from the slab, rather than from
// the copy it took on entry, would read a later pass's.
func TestBatchSlabRing(t *testing.T) {
	arms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		var cov coverage
		for _, n := range []int{1, 9, 128} {
			q, xs := batchCase(rng, n, 15*Lanes)
			c := newStageCase(q, xs, n/10)
			sched := make([]float64, 15)
			for pass := 0; pass < len(sched); pass += 2 {
				sched[pass] = keepLeast(c, pass*Lanes)
			}
			for _, run := range []float64{math.Inf(1), DistanceExact(q, xs[0], c.r)} {
				var b Batch
				if err := checkStage(&b, c, sched, run, true, &cov); err != nil {
					t.Fatalf("n=%d run limit %v: %v", n, run, err)
				}
			}
		}
	})
}

// TestBoundMatchesEnvelopePrefix checks one pass against the scalar prefix
// directly: at limits on either side of each lane's own bound, whole and
// at every tested column, a lane is queued exactly when
// vector.EnvelopePrefixEarlyAbandon's sum stays below the limit, and a
// queued lane's prefix sums are bitwise the scalar ones.
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
					queued := b.Bound(c.l, c.u, limit)
					var kept, got []int
					for k, x := range xs {
						scratch := make([]float64, n)
						if vector.EnvelopePrefixEarlyAbandon(x, c.l, c.u, scratch, limit*slack) < limit*slack {
							kept = append(kept, k)
						}
						if b.queue&(1<<k) != 0 {
							got = append(got, k)
						}
					}
					if queued != len(got) || !slices.Equal(got, kept) {
						t.Fatalf("n=%d %d pending, limit %v: queued %v (%d), scalar %v", n, pending, limit, got, queued, kept)
					}
					for _, k := range kept {
						for j, p := range c.prefix(k) {
							if got := b.slabPrefix(k, j, n); math.Float64bits(got) != math.Float64bits(p) {
								t.Fatalf("n=%d limit %v: lane %d prefix %d = %v, scalar %v", n, limit, k, j, got, p)
							}
						}
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
	// Streams: n = 1 and 2 at r = 0, and 6 passes at n = 127, 128, 129.
	f.Add(int64(7), uint16(0), uint16(0), uint8(6*Lanes-1), 0.2)
	f.Add(int64(8), uint16(1), uint16(0), uint8(6*Lanes-1), 0.7)
	for _, nRaw := range []uint16{126, 127, 128} {
		f.Add(int64(9), nRaw, uint16(13), uint8(6*Lanes-1), 0.1)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, rRaw uint16, countRaw uint8, frac float64) {
		n := int(nRaw)%300 + 1
		r := int(rRaw) % n
		count := int(countRaw)%(6*Lanes) + 1
		arms(t, func(t *testing.T) {
			var b Batch
			if err := checkBatchCase(&b, rand.New(rand.NewSource(seed)), n, r, count, frac, &coverage{}); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// BenchmarkBatch128Band13 runs the serve-dtw shape (128 points, a 10 %
// window) through a Batch, in ns per candidate:
//   - full and abandon: the DPs, every candidate queued, at limit +Inf
//     (beside BenchmarkDistance128Band13) and at
//     BenchmarkCascade128Band13's limit, the 10th percentile of the walks'
//     DTW; each includes the candidates' full LB_Keogh pass;
//   - stage: the whole stage at that limit, Lanes candidates a pass, as a
//     query runs it (pending, the bound pass, the survivors' DPs), with
//     the lanes in flight from pass to pass;
//   - stream: the 1 024 walks through the whole stage at that limit, then
//     one flush;
//   - near: the same for 1 024 copies of the query under 3 dB noise, cut at
//     half their own 10th-percentile DTW, so that, like serve-dtw's, most
//     candidates get a DP (61 %) and it stops early (41 rows, 43 in
//     serve-dtw; stream's DPs are few, 17 %, and run 110 rows);
//   - rows/DP, on stream and near: the mean rows a DP runs, from a
//     laneModel replay outside the timer;
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
	perCandidate := func(b *testing.B, per int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/candidate")
	}
	// drain runs the queue empty (and, flushing, the lanes) at limit.
	drain := func(batch *Batch, limit float64, flush bool) {
		for {
			run := batch.Run
			if flush {
				run = batch.Flush
			}
			d, _ := run(q, r, limit)
			if len(d) == 0 {
				return
			}
			sink += d[0]
		}
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
				drain(&batch, run, false)
			}
			drain(&batch, run, true)
			perCandidate(b, Lanes)
		})
	}
	stage("full", inf, inf)
	stage("abandon", inf, cut)
	stage("stage", cut, cut)
	stream := func(name string, xs [][]float32, cut float64) {
		b.Run(name, func(b *testing.B) {
			var batch Batch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, x := range xs {
					if batch.Add(x, int32(k)) {
						batch.Bound(l, u, cut)
						drain(&batch, cut, false)
					}
				}
				drain(&batch, cut, true)
			}
			perCandidate(b, len(xs))
			b.StopTimer()
			b.ReportMetric(rowsPerDP(newStageCase(q, xs, r), cut), "rows/DP")
		})
	}
	stream("stream", walks, cut)
	// near: 3 dB noisy copies of q. Cut at their 10th-percentile DTW, a
	// queued copy's DP runs 109 rows, near the full 128; at half that cut
	// every DP abandons partway, as nearly all of serve-dtw's do.
	near := make([][]float32, count)
	var sum, sq float64
	for _, v := range q {
		sum, sq = sum+float64(v), sq+float64(v)*float64(v)
	}
	sigma := math.Sqrt(sq/n-sum*sum/(n*n)) * math.Pow(10, -3.0/20)
	for i := range near {
		near[i] = make([]float32, n)
		for j, v := range q {
			near[i][j] = v + float32(rng.NormFloat64()*sigma)
		}
		dists[i] = DistanceExact(q, near[i], r)
	}
	slices.Sort(dists)
	stream("near", near, dists[count/10]/2)
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
					batch.queue = 0 // this arm times the pass alone
				}
				perCandidate(b, Lanes)
			})
		}
	}
}
