package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/shard"
)

// sub returns series [lo,hi) of data as a collection sharing its storage.
func sub(t *testing.T, data *series.Collection, lo, hi int) *series.Collection {
	t.Helper()
	col, err := series.NewCollection(data.Data[lo*data.Length:hi*data.Length], data.Length)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// chunks cuts series [lo,hi) of data into delta chunks of at most size
// series, positioned where they sit in data.
func chunks(t *testing.T, data *series.Collection, lo, hi, size int) []Chunk {
	t.Helper()
	var out []Chunk
	for ; lo < hi; lo += size {
		out = append(out, Chunk{Data: sub(t, data, lo, min(lo+size, hi)), Start: lo})
	}
	return out
}

// TestViewMatchesBruteForce: a view is searched as ONE fan-out — the
// generation's shards and the delta's chunks feed one collector — so for
// every shape a live index can hand over, and every shard count, the
// answer equals a brute-force scan of the whole collection: 1-NN against
// scan.Search1NNBounded, k-NN against scan.SearchKNN (sorted by distance,
// ties by ascending position, a series counted once even when a chunk and
// the generation both hold it), DTW against scan.SearchDTWBounded,
// distances bitwise-equal. These are the rows that were shard.TestSeeds
// and the seed sets of shard.TestSharedTopKMatchesBruteForce: a delta chunk
// is the seed now. Its plan rows (checkViewPlans) repeat the fan-out when the
// shards scan instead of using their trees.
func TestViewMatchesBruteForce(t *testing.T) {
	const baseLen, total = 3000, 3600
	all, err := series.NewCollection(append([]float32(nil), testData(t).Data[:total*testLength]...), testLength)
	if err != nil {
		t.Fatal(err)
	}
	// The delta holds the winner of every query below, and its runner-up
	// twice — an exact distance tie, broken by position.
	rng := rand.New(rand.NewSource(5))
	noisy := func(src []float32, sigma float64) []float32 {
		out := make([]float32, len(src))
		for i, v := range src {
			out[i] = v + float32(sigma*rng.NormFloat64())
		}
		return out
	}
	_, qs := testIndex(t)
	queries := [][]float32{qs.At(0), qs.At(1), qs.At(2)}
	for i, q := range queries {
		copy(all.At(baseLen+100+10*i), noisy(q, 0.01))
		runnerUp := noisy(q, 0.05)
		copy(all.At(baseLen+103+10*i), runnerUp)
		copy(all.At(baseLen+105+10*i), runnerUp)
	}
	window := dtw.WindowSize(testLength, 0.1)
	opts := core.Options{LeafCapacity: 100}

	type viewCase struct {
		name string
		view func(S int) View
	}
	build := func(n, S int) *shard.Index {
		sx, err := shard.Build(sub(t, all, 0, n), S, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sx
	}
	cases := []viewCase{
		{"delta only", func(int) View { return View{Delta: chunks(t, all, 0, total, 512)} }},
		{"delta + base, the delta holding the winner", func(S int) View {
			return View{Base: build(baseLen, S), Delta: chunks(t, all, baseLen, total, 256)}
		}},
		// What a query used to see across a concurrent rebuild: the new
		// generation already holds the series its delta still lists.
		{"delta duplicating base positions", func(S int) View {
			return View{Base: build(total, S), Delta: chunks(t, all, baseLen, total, 256)}
		}},
	}
	e := New(opts, Options{PoolWorkers: 4})
	defer e.Close()
	for _, tc := range cases {
		for _, S := range []int{1, 2, 4, 8} {
			v := tc.view(S)
			for qi, q := range queries {
				name := fmt.Sprintf("%s, S=%d, query %d", tc.name, S, qi)
				want1, err := scan.Search1NNBounded(all, q, 1, math.Inf(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				if want1.Position != baseLen+100+10*qi {
					t.Fatalf("%s: the planted winner is not the nearest neighbor: %+v", name, want1)
				}
				for _, k := range []int{1, 5, 50} {
					want, err := scan.SearchKNN(all, q, k, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Do(v, core.Request{Query: q, K: k})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Exact || len(res.Matches) != k {
						t.Fatalf("%s k=%d: exact=%v, %d matches", name, k, res.Exact, len(res.Matches))
					}
					for i, got := range res.Matches {
						if got != want[i] {
							t.Fatalf("%s k=%d: match %d is %+v, brute force %+v", name, k, i, got, want[i])
						}
					}
					if k == 1 && res.Matches[0] != want1 {
						t.Fatalf("%s: 1-NN %+v, Search1NNBounded %+v", name, res.Matches[0], want1)
					}
				}
				wantD, err := scan.SearchDTWBounded(all, q, window, 1, math.Inf(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Do(v, core.Request{Query: q, DTW: true, Window: window})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Exact || len(res.Matches) != 1 || res.Matches[0] != wantD {
					t.Fatalf("%s: DTW %+v, SearchDTWBounded %+v", name, res, wantD)
				}
				// The delta is scanned exactly whatever the mode: its winner
				// is found even by a request that only descends one leaf.
				res, err = e.Do(v, core.Request{Query: q, Mode: core.ModeApprox})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Matches) != 1 || res.Matches[0] != want1 {
					t.Fatalf("%s: approximate %+v, want the delta's winner %+v", name, res.Matches, want1)
				}
				if res.Exact != (v.Base == nil) {
					t.Fatalf("%s: approximate answer reports exact=%v", name, res.Exact)
				}
			}
		}
	}
	t.Run("plans", func(t *testing.T) { checkViewPlans(t, all) })
}

// oodQuery is white Gaussian noise, z-normalized: far from every series of a
// random-walk collection, so no lower bound prunes it.
func oodQuery(seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	q := make([]float32, testLength)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	return series.ZNormalize(q)
}

// adversarialQuery is a member with every second sign flipped: its PAA
// collapses toward zero, so every lower bound looks equally close.
func adversarialQuery(member []float32) []float32 {
	q := make([]float32, len(member))
	for i, v := range member {
		if i%2 == 1 {
			v = -v
		}
		q[i] = v
	}
	return series.ZNormalize(q)
}

// checkViewPlans is TestViewMatchesBruteForce's plan rows: the same fan-out
// when the shards' runs take the scan plan. Over 4-segment shards (whose
// leaves hold enough entries for the approximate search to fill a k = 5
// collector), member and near-duplicate queries must take the tree and OOD
// and adversarial ones the scan in every shard — asserted through
// ScanPlans — with and without a delta beside the generation, and the
// answers must equal brute force's bitwise either way; ε answers lie within
// 1+ε. Each shard's DTW run takes the plan its own share picks, and the
// answer is brute force's whatever they pick; over all cases the DTW runs
// must reach both plans.
func checkViewPlans(t *testing.T, all *series.Collection) {
	const baseLen, total, eps = 3000, 3600, 0.05
	opts := core.Options{Segments: 4, LeafCapacity: 64}
	rng := rand.New(rand.NewSource(9))
	var tree, scanned [][]float32
	for i := 0; i < 2; i++ {
		member := all.At(rng.Intn(baseLen))
		near := make([]float32, testLength)
		for j, v := range member {
			near[j] = v + float32(0.01*rng.NormFloat64())
		}
		tree = append(tree, append([]float32(nil), member...), series.ZNormalize(near))
		scanned = append(scanned, oodQuery(int64(100+i)), adversarialQuery(all.At(rng.Intn(baseLen))))
	}
	e := New(opts, Options{PoolWorkers: 4})
	defer e.Close()
	window := dtw.WindowSize(testLength, 0.1)
	var dtwScans, dtwTrees int64 // the shard runs' DTW plans, over every case
	for _, S := range []int{1, 3} {
		sx, err := shard.Build(sub(t, all, 0, baseLen), S, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, vc := range []struct {
			name string
			view View
			n    int // series in the view
		}{
			{"base", View{Base: sx}, baseLen},
			{"base + delta", View{Base: sx, Delta: chunks(t, all, baseLen, total, 256)}, total},
		} {
			for _, qc := range []struct {
				queries [][]float32
				scans   int64 // scan plans per query: none, or one per shard
			}{{tree, 0}, {scanned, int64(S)}} {
				for qi, q := range qc.queries {
					name := fmt.Sprintf("S=%d, %s, query %d of the %d-scan set", S, vc.name, qi, qc.scans)
					do := func(req core.Request) core.Result {
						t.Helper()
						req.Query = q
						res, err := e.Do(vc.view, req)
						if err != nil {
							t.Fatal(err)
						}
						got := res.Tally.ScanPlans
						if req.DTW && (got < 0 || got > int64(S)) {
							t.Fatalf("%s, %+v: %d scan plans over %d shards", name, req, got, S)
						}
						if !req.DTW && got != qc.scans {
							t.Fatalf("%s, %+v: %d scan plans, want %d", name, req, got, qc.scans)
						}
						return res
					}
					data := sub(t, all, 0, vc.n)
					for _, k := range []int{1, 5} {
						want, err := scan.SearchKNN(data, q, k, 1, nil)
						if err != nil {
							t.Fatal(err)
						}
						if res := do(core.Request{K: k}); !res.Exact || !reflect.DeepEqual(res.Matches, want) {
							t.Fatalf("%s k=%d: %+v, brute force %+v", name, k, res.Matches, want)
						}
					}
					want1, err := scan.Search1NNBounded(data, q, 1, math.Inf(1), nil)
					if err != nil {
						t.Fatal(err)
					}
					res := do(core.Request{Mode: core.ModeEpsilon, Epsilon: eps})
					if math.Sqrt(res.Matches[0].Dist) > (1+eps)*math.Sqrt(want1.Dist) {
						t.Fatalf("%s: ε answer %+v beyond (1+ε)·%v", name, res.Matches[0], want1.Dist)
					}
					if qi < 2 {
						// DTW is slow: one query of each tier, the second,
						// since the first pair scans in every shard.
						continue
					}
					wantD, err := scan.SearchDTWBounded(data, q, window, 1, math.Inf(1), nil)
					if err != nil {
						t.Fatal(err)
					}
					res = do(core.Request{DTW: true, Window: window})
					if !res.Exact || res.Matches[0] != wantD {
						t.Fatalf("%s: DTW %+v, brute force %+v", name, res.Matches, wantD)
					}
					dtwScans += res.Tally.ScanPlans
					dtwTrees += int64(S) - res.Tally.ScanPlans
				}
			}
		}
	}
	if dtwScans == 0 || dtwTrees == 0 {
		t.Fatalf("DTW runs took %d scan plans and %d tree plans, want both", dtwScans, dtwTrees)
	}
}

// TestValidateThenAdmit: a request is validated BEFORE it queues for a
// slot. With the gate full, every malformed request comes back at once
// with its typed sentinel, while a well-formed one waits for the slot.
func TestValidateThenAdmit(t *testing.T) {
	ix, qs := testIndex(t)
	e := serve(ix, Options{PoolWorkers: 4})
	defer e.Close()
	release := fillGate(e.Engine)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	good := qs.At(0)
	for _, tc := range []struct {
		name string
		req  core.Request
		want error
	}{
		{"wrong length", core.Request{Query: good[:testLength/2]}, core.ErrWrongLength},
		{"bad epsilon", core.Request{Query: good, Mode: core.ModeEpsilon, Epsilon: math.NaN()}, core.ErrBadEpsilon},
		{"negative k", core.Request{Query: good, K: -1}, core.ErrBadK},
		{"bad window", core.Request{Query: good, DTW: true, Window: testLength}, core.ErrBadWindow},
	} {
		done := make(chan error, 1)
		go func() { _, err := e.do(tc.req); done <- err }()
		select {
		case err := <-done:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the malformed request queued behind the full gate", tc.name)
		}
	}

	done := make(chan error, 1)
	go func() { _, err := pool1(e, good); done <- err }()
	select {
	case err := <-done:
		t.Fatalf("a well-formed request got past the full gate (err = %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	released = true
	if err := <-done; err != nil {
		t.Fatalf("well-formed request after the slot was released: %v", err)
	}
}
