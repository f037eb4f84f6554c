package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/paa"
	"repro/internal/pqueue"
	"repro/internal/series"
	"repro/internal/tree"
	"repro/internal/vector"
)

// queryTier generates queries of one hardness tier from members of a
// collection: internal/workload's tiers, rebuilt here because that package
// imports this one.
type queryTier struct {
	name string
	fill func(rng *rand.Rand, member, dst []float32)
}

// noisyTier adds Gaussian noise at snrDB to a member.
func noisyTier(snrDB float64) queryTier {
	return queryTier{fmt.Sprintf("noise %g dB", snrDB), func(rng *rand.Rand, member, dst []float32) {
		sigma := series.Std(member) * math.Pow(10, -snrDB/20)
		for j, v := range member {
			dst[j] = v + float32(rng.NormFloat64()*sigma)
		}
	}}
}

var (
	memberTier  = queryTier{"member", func(_ *rand.Rand, member, dst []float32) { copy(dst, member) }}
	nearDupTier = noisyTier(40)
	// White Gaussian noise: far off the manifold of every generated family.
	oodTier = queryTier{"ood", func(rng *rand.Rand, _, dst []float32) {
		for j := range dst {
			dst[j] = float32(rng.NormFloat64())
		}
	}}
	// A member with every second sign flipped: its PAA collapses toward 0.
	adversarialTier = queryTier{"adversarial", func(_ *rand.Rand, member, dst []float32) {
		for j, v := range member {
			if j%2 == 1 {
				v = -v
			}
			dst[j] = v
		}
	}}
)

// queries returns n z-normalized queries of the tier over data.
func (qt queryTier) queries(data *series.Collection, n int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		member := data.At(rng.Intn(data.Count()))
		q := make([]float32, data.Length)
		qt.fill(rng, member, q)
		out[i] = series.ZNormalize(q)
	}
	return out
}

// forcePlan overrides the plan a run chose in preparation.
func forcePlan(run *SearchRun, scan bool) {
	if run.done || run.scan == scan {
		return
	}
	run.scan = scan
	if !scan {
		run.queues = pqueue.NewSet[*tree.Node](run.opt.Queues, 64)
	}
}

// BenchmarkPlanCrossover measures what the plan's crossover constants are
// chosen from: per query, the sampled share (sampledShare) against the
// time of the whole query on the tree plan and on the scan plan, 2 workers,
// best of two runs each. It sweeps noise queries at 10, 3, 0 and −3 dB plus
// OOD queries over 500 000 × 128 series of each internal/dataset family
// (Euclidean), and over 25 000 × 128 random walks under DTW with a 10 %
// window (serve-dtw's shape). Each family logs its rows sorted by share
// and the sweep's mean query time when the queries with a share above t
// scan, for t = 0, 0.1, …, 1 (1 = the tree alone); it reports the t of that
// grid with the least time ("best-t") and the mean query time of the tree
// alone, the scan alone, and the plan at the kernel's crossover.
func BenchmarkPlanCrossover(b *testing.B) {
	if testing.Short() {
		b.Skip("builds 256 MB collections")
	}
	const length, perTier = 128, 10
	tiers := []queryTier{noisyTier(10), noisyTier(3), noisyTier(0), noisyTier(-3), oodTier}
	for _, fam := range []struct {
		kind  dataset.Kind
		count int
		dtw   bool
	}{
		{dataset.RandomWalk, 500_000, false},
		{dataset.SeismicLike, 500_000, false},
		{dataset.SALDLike, 500_000, false},
		{dataset.RandomWalk, 25_000, true},
	} {
		name := string(fam.kind)
		if fam.dtw {
			name += "-dtw"
		}
		b.Run(name, func(b *testing.B) {
			data, err := dataset.Generate(fam.kind, fam.count, length, 11)
			if err != nil {
				b.Fatal(err)
			}
			ix, err := Build(data, Options{IndexWorkers: 2})
			if err != nil {
				b.Fatal(err)
			}
			type row struct {
				tier              string
				share, tree, scan float64 // ms
			}
			timed := func(req Request, scan bool) float64 {
				start := time.Now()
				run := newRun(ix, req, SearchOptions{})
				forcePlan(run, scan)
				drive(run, 2)
				return float64(time.Since(start).Nanoseconds()) / 1e6
			}
			var rows []row
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows = rows[:0]
				for ti, qt := range tiers {
					for _, q := range qt.queries(data, perTier, int64(100+ti)) {
						req := Request{Query: q, DTW: fam.dtw, Window: dtw.WindowSize(length, 0.1)}
						r := row{tier: qt.name, share: newRun(ix, req, SearchOptions{}).sampledShare(),
							tree: math.Inf(1), scan: math.Inf(1)}
						for rep := 0; rep < 2; rep++ {
							r.tree = min(r.tree, timed(req, false))
							r.scan = min(r.scan, timed(req, true))
						}
						rows = append(rows, r)
					}
				}
			}
			b.StopTimer()

			sort.Slice(rows, func(i, j int) bool { return rows[i].share < rows[j].share })
			var tbl strings.Builder
			fmt.Fprintf(&tbl, "%-14s %6s %9s %9s %6s\n", "tier", "share", "tree ms", "scan ms", "ratio")
			for _, r := range rows {
				fmt.Fprintf(&tbl, "%-14s %6.3f %9.2f %9.2f %6.2f\n", r.tier, r.share, r.tree, r.scan, r.tree/r.scan)
			}
			b.Logf("%s, %d series:\n%s", name, fam.count, tbl.String())

			// The sweep's mean query time when the queries whose share exceeds
			// t scan: t = 1 is the tree alone, t < 0 the scan alone.
			mean := func(t float64) float64 {
				var total float64
				for _, r := range rows {
					if r.share > t {
						total += r.scan
					} else {
						total += r.tree
					}
				}
				return total / float64(len(rows))
			}
			var curve strings.Builder
			best := 1.0
			for i := 0; i <= 10; i++ {
				t := float64(i) / 10
				fmt.Fprintf(&curve, " %.1f:%.2f", t, mean(t))
				if mean(t) < mean(best) {
					best = t
				}
			}
			b.Logf("mean ms per query when shares above t scan, t:ms:%s", curve.String())
			crossover := newKernel(Request{Query: data.At(0), DTW: fam.dtw}).crossover()
			b.ReportMetric(best, "best-t")
			b.ReportMetric(mean(1), "tree-ms/query")
			b.ReportMetric(mean(-1), "scan-ms/query")
			b.ReportMetric(mean(crossover), "planned-ms/query")
		})
	}
}

// TestSampledShareTracksEntryShare: the plan's 2 048-word sample predicts
// the share of the whole collection whose full-cardinality lower bound
// survives the bound after the approximate search — within 0.05 on every
// tier, from prunable (member) to unprunable (adversarial). The collection
// is 10 000 random walks followed by 10 000 seismic-like series, so a
// sample drawn from one part of it would show.
func TestSampledShareTracksEntryShare(t *testing.T) {
	var flat []float32
	for _, kind := range []dataset.Kind{dataset.RandomWalk, dataset.SeismicLike} {
		part, err := dataset.Generate(kind, 10000, 64, 11)
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, part.Data...)
	}
	data, err := series.NewCollection(flat, 64)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(data, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := ix.Schema.Segments
	words := make([]uint8, ix.Data.Count()*w)
	for pos := 0; pos < ix.Data.Count(); pos++ {
		ix.Schema.WordFromPAA(paa.Transform(ix.Data.At(pos), w, nil), words[pos*w:(pos+1)*w])
	}
	for _, qt := range []queryTier{memberTier, nearDupTier, noisyTier(10), oodTier, adversarialTier} {
		for qi, q := range qt.queries(ix.Data, 4, 5) {
			for _, req := range []Request{{Query: q}, {Query: q, Mode: ModeEpsilon, Epsilon: 0.05}} {
				run := newRun(ix, req, SearchOptions{})
				limit, survivors := run.bnd.Load(), 0
				for i := 0; i < len(words); i += w {
					if run.table.MinDistWord(words[i:i+w])*run.qos.scale < limit {
						survivors++
					}
				}
				exact := float64(survivors) / float64(ix.Data.Count())
				if got := run.sampledShare(); math.Abs(got-exact) > 0.05 {
					t.Errorf("%s query %d, %v: sampled share %.3f, collection %.3f", qt.name, qi, req.Mode, got, exact)
				}
			}
		}
	}
}

// TestRestoreKeepsPlanSample: Build and Restore fill the same sample — one
// from the phase-1 words, one from the series — so a snapshot round trip
// makes the same plan for every query.
func TestRestoreKeepsPlanSample(t *testing.T) {
	for _, count := range []int{1500, 20000} { // every position, and a strided sample
		ix := buildTestIndex(t, dataset.RandomWalk, count, 64, smallOpts())
		rx := Restore(ix.Data, ix.Tree, ix.Opts)
		if want := min(count, sampleSize) * ix.Schema.Segments; len(ix.sample) != want {
			t.Fatalf("%d series: sample holds %d bytes, want %d", count, len(ix.sample), want)
		}
		if !reflect.DeepEqual(ix.sample, rx.sample) {
			t.Fatalf("%d series: Build and Restore samples differ", count)
		}
		for _, qt := range []queryTier{memberTier, noisyTier(10), oodTier, adversarialTier} {
			for qi, q := range qt.queries(ix.Data, 3, 9) {
				var plans [2]bool
				for i, x := range []*Index{ix, rx} {
					run := newRun(x, Request{Query: q}, SearchOptions{})
					plans[i] = run.scan
				}
				if plans[0] != plans[1] {
					t.Errorf("%d series, %s query %d: built index scans=%v, restored scans=%v",
						count, qt.name, qi, plans[0], plans[1])
				}
			}
		}
	}
}

// kernelKNN is brute force through the search's own Euclidean kernel, so
// that answers compare bitwise: every series measured in full, the k
// nearest by distance, ties by position.
func kernelKNN(data *series.Collection, q []float32, k int) []Match {
	all := make([]Match, data.Count())
	for i := range all {
		all[i] = Match{Position: i, Dist: vector.SquaredEuclideanEarlyAbandon(data.At(i), q, math.Inf(1))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Position < all[j].Position
	})
	return all[:k]
}

// checkPlans is TestRefineMatchesPlainLoop's plan rows: whole runs on each
// plan against brute force. The index has 4 segments, so its leaves hold
// enough entries for the approximate search to fill a k = 5 collector (an
// unfilled one keeps the tree). Member and near-duplicate queries take the
// tree, OOD and adversarial ones the scan — asserted through ScanPlans —
// and either way 1-NN and k-NN answers equal brute force's bitwise, an ε
// answer lies within 1+ε of it, a run cancelled before it starts returns
// the best-so-far flagged inexact, and DTW never scans.
func checkPlans(t *testing.T) {
	const count, length, k, eps = 2000, 64, 5, 0.05
	opts := smallOpts()
	opts.Segments, opts.LeafCapacity = 4, 64
	ix := buildTestIndex(t, dataset.RandomWalk, count, length, opts)
	window := dtw.WindowSize(length, 0.1)
	cancelled := make(chan struct{})
	close(cancelled)
	for _, tc := range []struct {
		tier queryTier
		scan bool
	}{{memberTier, false}, {nearDupTier, false}, {oodTier, true}, {adversarialTier, true}} {
		for qi, q := range tc.tier.queries(ix.Data, 3, 41) {
			do := func(name string, req Request, wantScan bool) Result {
				t.Helper()
				req.Query = q
				res, err := resultWith(ix, req, SearchOptions{}, ix.Opts.SearchWorkers)
				if err != nil {
					t.Fatal(err)
				}
				if scanned := res.Tally.ScanPlans == 1; scanned != wantScan {
					t.Fatalf("%s query %d, %s: scanned=%v, want %v", tc.tier.name, qi, name, scanned, wantScan)
				}
				return res
			}
			where := fmt.Sprintf("%s query %d", tc.tier.name, qi)

			wantK := kernelKNN(ix.Data, q, k)
			want1 := wantK[0]
			if res := do("1-NN", Request{}, tc.scan); !res.Exact || res.Matches[0] != want1 {
				t.Fatalf("%s: 1-NN %+v, brute force %+v", where, res, want1)
			}
			if res := do("k-NN", Request{K: k}, tc.scan); !res.Exact || !reflect.DeepEqual(res.Matches, wantK) {
				t.Fatalf("%s: k-NN %+v, brute force %+v", where, res.Matches, wantK)
			}
			res := do("ε", Request{Mode: ModeEpsilon, Epsilon: eps}, tc.scan)
			if math.Sqrt(res.Matches[0].Dist) > (1+eps)*math.Sqrt(want1.Dist) {
				t.Fatalf("%s: ε answer %v beyond (1+ε)·%v", where, res.Matches[0].Dist, want1.Dist)
			}
			res = do("cancelled", Request{Cancel: cancelled}, tc.scan)
			if res.Exact || len(res.Matches) != 1 || res.Matches[0].Dist < want1.Dist {
				t.Fatalf("%s: cancelled run %+v, want the best-so-far flagged inexact", where, res)
			}
			wantD := bruteForceDTW(ix.Data, q, window)
			if res := do("DTW", Request{DTW: true, Window: window}, false); !res.Exact || res.Matches[0] != wantD {
				t.Fatalf("%s: DTW %+v, brute force %+v", where, res, wantD)
			}
		}
	}
}

// offerCounter is a collector that never tightens and counts the offers of
// every position.
type offerCounter struct{ offers []atomic.Int32 }

func (c *offerCounter) Load() float64 { return math.Inf(1) }
func (c *offerCounter) Update(_ float64, pos int64) bool {
	c.offers[pos].Add(1)
	return false
}
func (c *offerCounter) Matches() []Match { return nil }

// TestScanPhaseMeasuresEverySeries: the scan plan's workers, claiming blocks
// concurrently, measure every series exactly once — including the short
// last block — whatever the worker count, and the query's tally counts each
// measurement once.
func TestScanPhaseMeasuresEverySeries(t *testing.T) {
	const count = 2*scanBlock + 37
	ix := buildTestIndex(t, dataset.RandomWalk, count, 64, smallOpts())
	for _, workers := range []int{1, 3, 8} {
		coll := &offerCounter{offers: make([]atomic.Int32, count)}
		run := newRun(ix, Request{Query: ix.Data.At(5)}, SearchOptions{Shared: coll})
		for i := range coll.offers {
			coll.offers[i].Store(0) // forget the approximate search's leaf
		}
		prepared := run.qos.total.RealDistCalcs
		forcePlan(run, true)
		drive(run, workers)
		for pos := range coll.offers {
			if n := coll.offers[pos].Load(); n != 1 {
				t.Fatalf("%d workers: series %d measured %d times", workers, pos, n)
			}
		}
		// Every worker's tally reached the query's: one real distance per
		// series, whatever the worker count.
		if n := run.qos.Finish(nil).Tally.RealDistCalcs - prepared; n != count {
			t.Fatalf("%d workers: the scan counted %d real distances, want %d", workers, n, count)
		}
	}
}
