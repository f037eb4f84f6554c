package messi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/scan"
	"repro/internal/series"
)

// qosIndexes builds the same collection unsharded and 4-way sharded: the
// quality-spectrum guarantees must hold identically on both backends.
func qosIndexes(t *testing.T, data []float32, length int) map[string]*Index {
	t.Helper()
	out := make(map[string]*Index, 2)
	for name, shards := range map[string]int{"single": 0, "sharded": 4} {
		ix, err := BuildFlat(data, length, &Options{LeafCapacity: 64, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = ix
	}
	return out
}

// bruteKNN answers k-NN by brute force over the raw data — the ground
// truth every quality guarantee is checked against.
func bruteKNN(t *testing.T, data []float32, length int, q []float32, k int) []float64 {
	t.Helper()
	col, err := series.NewCollection(data, length)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := scan.SearchKNN(col, q, k, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	dists := make([]float64, len(ms))
	for i, m := range ms {
		dists[i] = math.Sqrt(m.Dist)
	}
	return dists
}

// TestEpsilonZeroEqualsExact: every exact-equivalent request answers
// bitwise like ModeExact — ε = 0 (inflating bounds by (1+0)² is the same
// arithmetic), ModeDeadline with no budget, and an exact query under a
// live context that is never cancelled (the served shape: its QoS state
// watches a channel that never closes) — across 1-NN, k-NN, and DTW, on
// single-tree and sharded backends. On a one-shard, one-worker index,
// where operation counts are deterministic, the counters match too: the
// same prunes, the same stops.
func TestEpsilonZeroEqualsExact(t *testing.T) {
	data := RandomWalk(3000, 64, 71)
	queries := RandomWalk(8, 64, 7171)
	indexes := qosIndexes(t, data, 64)
	serial, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	indexes["serial"] = serial
	bg := context.Background()
	live, cancel := context.WithCancel(bg)
	defer cancel()
	variants := []struct {
		name string
		ctx  context.Context
		edit func(*SearchRequest)
	}{
		{"ε=0", bg, func(r *SearchRequest) { r.Mode, r.Epsilon = ModeEpsilon, 0 }},
		{"zero deadline", bg, func(r *SearchRequest) { r.Mode, r.Deadline = ModeDeadline, 0 }},
		{"live context", live, func(*SearchRequest) {}},
	}
	for name, ix := range indexes {
		for qi := 0; qi < 8; qi++ {
			q := queries[qi*64 : (qi+1)*64]
			shapes := []SearchRequest{
				{Query: q, Counters: true},
				{Query: q, K: 5, Counters: true},
				{Query: q, DTW: true, Window: 0.1, Counters: true},
			}
			for _, base := range shapes {
				exact, err := ix.Do(bg, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					req := base
					v.edit(&req)
					got, err := ix.Do(v.ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s query %d k=%d dtw=%v, %s", name, qi, base.K, base.DTW, v.name)
					if !got.Exact || got.EpsilonBound != 0 {
						t.Fatalf("%s: result not exact: %+v", where, got)
					}
					if len(got.Matches) != len(exact.Matches) {
						t.Fatalf("%s: %d matches, exact %d", where, len(got.Matches), len(exact.Matches))
					}
					for i := range exact.Matches {
						if got.Matches[i] != exact.Matches[i] {
							t.Fatalf("%s rank %d: %+v, exact %+v (must be bitwise identical)",
								where, i, got.Matches[i], exact.Matches[i])
						}
					}
					if name == "serial" && *got.Counters != *exact.Counters {
						t.Fatalf("%s: counters %+v, exact %+v", where, *got.Counters, *exact.Counters)
					}
				}
			}
		}
	}
}

// TestEpsilonBoundedGuarantee: an ε > 0 answer is never better than
// optimal and never worse than (1+ε)×optimal, and the bound the result
// reports is at most the requested ε. Verified against a brute-force
// scan, on both backends.
func TestEpsilonBoundedGuarantee(t *testing.T) {
	data := RandomWalk(4000, 64, 73)
	queries := RandomWalk(6, 64, 7373)
	indexes := qosIndexes(t, data, 64)
	for qi := 0; qi < 6; qi++ {
		q := queries[qi*64 : (qi+1)*64]
		optimal := bruteKNN(t, data, 64, q, 5)
		for name, ix := range indexes {
			for _, eps := range []float64{0.05, 0.25, 1.0} {
				res, err := ix.Do(context.Background(), SearchRequest{Query: q, Mode: ModeEpsilon, Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				d := res.Best().Distance
				if d < optimal[0]-1e-6 {
					t.Fatalf("%s ε=%v query %d: answer %v better than optimal %v", name, eps, qi, d, optimal[0])
				}
				if d > (1+eps)*optimal[0]+1e-6 {
					t.Fatalf("%s ε=%v query %d: answer %v violates (1+ε)×%v", name, eps, qi, d, optimal[0])
				}
				if res.Exact && math.Abs(d-optimal[0]) > 1e-5 {
					t.Fatalf("%s ε=%v query %d: claimed exact but %v != optimal %v", name, eps, qi, d, optimal[0])
				}
				if !res.Exact && res.EpsilonBound > eps+1e-9 {
					t.Fatalf("%s ε=%v query %d: reported bound %v exceeds requested ε", name, eps, qi, res.EpsilonBound)
				}

				// The k-NN guarantee applies rank-wise to the worst match.
				kres, err := ix.Do(context.Background(), SearchRequest{Query: q, K: 5, Mode: ModeEpsilon, Epsilon: eps})
				if err != nil {
					t.Fatal(err)
				}
				if len(kres.Matches) != 5 {
					t.Fatalf("%s ε=%v query %d: k-NN returned %d matches", name, eps, qi, len(kres.Matches))
				}
				for i, m := range kres.Matches {
					if m.Distance > (1+eps)*optimal[i]+1e-6 {
						t.Fatalf("%s ε=%v query %d rank %d: %v violates (1+ε)×%v", name, eps, qi, i, m.Distance, optimal[i])
					}
				}
			}
		}
	}
}

// TestApproxUpperBoundGuarantee: ModeApprox answers are flagged inexact,
// prove no bound, and are rank-wise upper bounds of the exact answer.
func TestApproxUpperBoundGuarantee(t *testing.T) {
	data := SeismicLike(3000, 64, 77)
	queries := SeismicLike(8, 64, 7777)
	for name, ix := range qosIndexes(t, data, 64) {
		for qi := 0; qi < 8; qi++ {
			q := queries[qi*64 : (qi+1)*64]
			exact, err := ix.Do(context.Background(), SearchRequest{Query: q, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := ix.Do(context.Background(), SearchRequest{Query: q, K: 3, Mode: ModeApprox})
			if err != nil {
				t.Fatal(err)
			}
			if approx.Exact {
				t.Fatalf("%s query %d: approximate answer claims exactness", name, qi)
			}
			if !math.IsInf(approx.EpsilonBound, 1) {
				t.Fatalf("%s query %d: approximate answer claims a proven bound %v", name, qi, approx.EpsilonBound)
			}
			for i := range approx.Matches {
				if i < len(exact.Matches) && approx.Matches[i].Distance < exact.Matches[i].Distance-1e-9 {
					t.Fatalf("%s query %d rank %d: approx %v beats exact %v",
						name, qi, i, approx.Matches[i].Distance, exact.Matches[i].Distance)
				}
			}
		}
	}
}

// TestDeadlineUnlimitedEqualsExact: ModeDeadline with no budget (or a
// generous one) completes the full exact search and says so.
func TestDeadlineUnlimitedEqualsExact(t *testing.T) {
	data := RandomWalk(2000, 64, 79)
	queries := RandomWalk(4, 64, 7979)
	for name, ix := range qosIndexes(t, data, 64) {
		for qi := 0; qi < 4; qi++ {
			q := queries[qi*64 : (qi+1)*64]
			exact, err := ix.Do(context.Background(), SearchRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []time.Duration{0, time.Hour} {
				res, err := ix.Do(context.Background(), SearchRequest{Query: q, Mode: ModeDeadline, Deadline: budget})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Exact || res.EpsilonBound != 0 {
					t.Fatalf("%s query %d budget %v: not exact: %+v", name, qi, budget, res)
				}
				if res.Best() != exact.Best() {
					t.Fatalf("%s query %d budget %v: %+v, exact %+v", name, qi, budget, res.Best(), exact.Best())
				}
			}
		}
	}
}

// qosFrontends is qosIndexes plus an Engine over each index and a
// LiveIndex over the same data, all closed at cleanup: every Do the quality
// contract binds.
func qosFrontends(t *testing.T, data []float32, length int) map[string]doer {
	t.Helper()
	out := map[string]doer{}
	for name, ix := range qosIndexes(t, data, length) {
		eng := ix.NewEngine(nil)
		t.Cleanup(eng.Close)
		out[name], out[name+" engine"] = ix, eng
	}
	live, err := BuildLiveFlat(data, length, &Options{LeafCapacity: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	out["live"] = live
	return out
}

// TestDeadlineTruncationContract: a canceled or deadline-expired query
// returns promptly with the best answer so far, flagged inexact, and the
// answer is still an upper bound on the optimal distance — on every
// frontend, 50 times over, so that an admission gate choosing at random
// between a free slot and an already-closed request would show.
func TestDeadlineTruncationContract(t *testing.T) {
	data := RandomWalk(10000, 64, 83)
	q := RandomWalk(1, 64, 8383)
	optimal := bruteKNN(t, data, 64, q, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ix := range qosFrontends(t, data, 64) {
		for call := 0; call < 50; call++ {
			// A context canceled before the call: the search must stop at
			// the first stop-check and report inexactness — never hang,
			// never claim exact, never refuse an idle index.
			start := time.Now()
			res, err := ix.Do(ctx, SearchRequest{Query: q, Mode: ModeDeadline})
			if err != nil {
				t.Fatalf("%s call %d: %v", name, call, err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("%s: pre-canceled query took %v", name, elapsed)
			}
			if res.Exact {
				t.Fatalf("%s: pre-canceled query claims exactness", name)
			}
			if len(res.Matches) > 0 && res.Best().Distance < optimal-1e-6 {
				t.Fatalf("%s: truncated answer %v better than optimal %v", name, res.Best().Distance, optimal)
			}

			// A microscopic budget: whatever is returned must satisfy the
			// same contract (tiny indexes may still finish — then Exact is
			// true).
			res, err = ix.Do(context.Background(), SearchRequest{Query: q, Mode: ModeDeadline, Deadline: 10 * time.Microsecond})
			if err != nil {
				t.Fatalf("%s call %d: %v", name, call, err)
			}
			if len(res.Matches) > 0 && res.Best().Distance < optimal-1e-6 {
				t.Fatalf("%s: budgeted answer %v better than optimal %v", name, res.Best().Distance, optimal)
			}
			if res.Exact && math.Abs(res.Best().Distance-optimal) > 1e-5 {
				t.Fatalf("%s: claimed exact under budget but %v != optimal %v", name, res.Best().Distance, optimal)
			}
		}
	}
}

// TestCancellationNoLeakedWorkers: queries canceled mid-flight terminate
// their worker goroutines on single-tree and sharded fan-out backends
// alike (run under -race in CI).
func TestCancellationNoLeakedWorkers(t *testing.T) {
	data := RandomWalk(10000, 64, 89)
	queries := RandomWalk(8, 64, 8989)
	for name, ix := range qosIndexes(t, data, 64) {
		before := runtime.NumGoroutine()
		for round := 0; round < 8; round++ {
			q := queries[(round%8)*64 : (round%8+1)*64]
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Alternate between Euclidean and DTW cancellation paths.
				req := SearchRequest{Query: q, Mode: ModeDeadline}
				if round%2 == 1 {
					req.DTW, req.Window = true, 0.1
				}
				if _, err := ix.Do(ctx, req); err != nil {
					t.Errorf("%s round %d: %v", name, round, err)
				}
			}()
			time.Sleep(100 * time.Microsecond)
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s round %d: canceled query did not return", name, round)
			}
		}
		// Workers must drain; allow the runtime a moment to reap them.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			t.Fatalf("%s: %d goroutines before, %d after cancellations — leaked workers", name, before, n)
		}
	}
}

// TestSentinelErrors: every frontend reports the same malformed request
// through the same errors.Is-matchable sentinel — the request is validated
// by one function, wherever it enters. (cmd/messi-serve's
// TestSearchEndpointBadRequests pins the same table to a 400.)
func TestSentinelErrors(t *testing.T) {
	data := RandomWalk(300, 64, 91)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	lix, err := BuildLiveFlat(RandomWalk(300, 64, 92), 64, &Options{LeafCapacity: 64, SearchWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	fresh, err := NewLive(64, &Options{LeafCapacity: 64, SearchWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Append(data[:64]); err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&EngineOptions{PoolWorkers: 2})
	defer eng.Close()

	ctx := context.Background()
	good := make([]float32, 64)
	frontends := map[string]func(SearchRequest) error{
		"index": func(r SearchRequest) error { _, err := ix.Do(ctx, r); return err },
		"live":  func(r SearchRequest) error { _, err := lix.Do(ctx, r); return err },
		// No base generation yet: the delta scan is the whole search, and
		// the engine checks the request before it all the same.
		"live without base": func(r SearchRequest) error { _, err := fresh.Do(ctx, r); return err },
		"engine":            func(r SearchRequest) error { _, err := eng.Do(ctx, r); return err },
	}
	cases := []struct {
		name string
		req  SearchRequest
		want error
	}{
		{"negative k", SearchRequest{Query: good, K: -1}, ErrBadK},
		{"dtw knn", SearchRequest{Query: good, DTW: true, Window: 0.1, K: 3}, ErrBadK},
		{"window above 1", SearchRequest{Query: good, DTW: true, Window: 1.5}, ErrBadWindow},
		{"negative window", SearchRequest{Query: good, DTW: true, Window: -0.5}, ErrBadWindow},
		{"window NaN", SearchRequest{Query: good, DTW: true, Window: math.NaN()}, ErrBadWindow},
		{"wrong length", SearchRequest{Query: make([]float32, 5)}, ErrWrongLength},
		{"negative epsilon", SearchRequest{Query: good, Mode: ModeEpsilon, Epsilon: -0.1}, ErrBadEpsilon},
		{"epsilon NaN", SearchRequest{Query: good, Mode: ModeEpsilon, Epsilon: math.NaN()}, ErrBadEpsilon},
		{"negative deadline", SearchRequest{Query: good, Mode: ModeDeadline, Deadline: -5 * time.Millisecond}, ErrBadDeadline},
		{"query NaN", SearchRequest{Query: nonFinite(good, math.NaN())}, ErrNonFinite},
		{"query +Inf", SearchRequest{Query: nonFinite(good, math.Inf(1))}, ErrNonFinite},
		{"dtw query NaN", SearchRequest{Query: nonFinite(good, math.NaN()), DTW: true, Window: 0.1}, ErrNonFinite},
		{"dtw query -Inf", SearchRequest{Query: nonFinite(good, math.Inf(-1)), DTW: true, Window: 0.1}, ErrNonFinite},
	}
	for fname, do := range frontends {
		for _, tc := range cases {
			err := do(tc.req)
			if err == nil {
				t.Errorf("%s/%s: no error", fname, tc.name)
			} else if !errors.Is(err, tc.want) {
				t.Errorf("%s/%s: error %q does not match sentinel", fname, tc.name, err)
			}
		}
	}
}

// nonFinite returns a copy of s whose point 3 is v.
func nonFinite(s []float32, v float64) []float32 {
	out := slices.Clone(s)
	out[3] = float32(v)
	return out
}

// TestAppendRejectsNonFinite: a live index refuses a series with a NaN or
// an infinity before journaling it, so nothing is acked that could never
// match, and a reopened WAL holds only the good rows.
func TestAppendRejectsNonFinite(t *testing.T) {
	walDir := t.TempDir()
	open := func() *LiveIndex {
		lix, err := NewLive(64, &Options{LeafCapacity: 64, SearchWorkers: 2}, &LiveOptions{WALDir: walDir})
		if err != nil {
			t.Fatal(err)
		}
		return lix
	}
	lix := open()
	good := RandomWalk(1, 64, 95)
	if _, err := lix.Append(good); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := nonFinite(good, v)
		if _, err := lix.Append(bad); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Append with %v: err = %v, want ErrNonFinite", v, err)
		}
		if _, err := lix.AppendBatch([][]float32{good, bad}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("AppendBatch with %v: err = %v, want ErrNonFinite", v, err)
		}
	}
	if n := lix.Len(); n != 1 {
		t.Errorf("Len = %d after refused appends, want 1", n)
	}
	if err := lix.Close(); err != nil {
		t.Fatal(err)
	}
	lix = open()
	defer lix.Close()
	if n := lix.Len(); n != 1 {
		t.Errorf("Len = %d after WAL replay, want 1", n)
	}
}

// TestEngineDoSpectrum: the engine answers exact requests exactly like the
// index's own Do and keeps the quality contract for the rest of the
// spectrum.
func TestEngineDoSpectrum(t *testing.T) {
	data := RandomWalk(2500, 64, 93)
	for _, shards := range []int{0, 4} {
		ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		eng := ix.NewEngine(&EngineOptions{PoolWorkers: 4})
		q := make([]float32, 64)
		copy(q, mustSeries(t, ix, 1234))

		res, err := eng.Do(context.Background(), SearchRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		want, err := nn1(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Best() != want {
			t.Fatalf("shards=%d: Engine.Do %+v, Index.Do %+v", shards, res, want)
		}

		res, err = eng.Do(context.Background(), SearchRequest{Query: q, Mode: ModeEpsilon, Epsilon: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best().Position != 1234 || res.Best().Distance != 0 {
			t.Fatalf("shards=%d: ε self-query answered %+v", shards, res.Best())
		}

		res, err = eng.Do(context.Background(), SearchRequest{Query: q, Mode: ModeDeadline, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Best() != want {
			t.Fatalf("shards=%d: generous deadline %+v, exact %+v", shards, res.Best(), want)
		}

		res, err = eng.Do(context.Background(), SearchRequest{Query: q, DTW: true, Window: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact || res.Best().Position != 1234 {
			t.Fatalf("shards=%d: DTW self-query %+v", shards, res.Best())
		}
		eng.Close()
	}
}

// TestDegradeEpsilonKeepsGuarantee: under a saturated admission gate with
// DegradeEpsilon set, every query still answers within the degraded
// (1+ε) guarantee — degraded or not — and with the policy off every
// answer stays exact.
func TestDegradeEpsilonKeepsGuarantee(t *testing.T) {
	data := RandomWalk(4000, 64, 97)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	queries := RandomWalk(16, 64, 9797)
	optimal := make([]float64, 16)
	for i := range optimal {
		optimal[i] = bruteKNN(t, data, 64, queries[i*64:(i+1)*64], 1)[0]
	}
	const eps = 0.5
	for _, degrade := range []float64{0, eps} {
		eng := ix.NewEngine(&EngineOptions{PoolWorkers: 2, MaxConcurrent: 1, DegradeEpsilon: degrade})
		results := make([]Result, 16)
		errs := make([]error, 16)
		done := make(chan int)
		for i := 0; i < 16; i++ {
			go func(i int) {
				results[i], errs[i] = eng.Do(context.Background(), SearchRequest{Query: queries[i*64 : (i+1)*64]})
				done <- i
			}(i)
		}
		for i := 0; i < 16; i++ {
			<-done
		}
		for i := 0; i < 16; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			d := results[i].Best().Distance
			if degrade == 0 && !results[i].Exact {
				t.Fatalf("degradation off: query %d inexact: %+v", i, results[i])
			}
			if d > (1+degrade)*optimal[i]+1e-6 {
				t.Fatalf("degrade=%v query %d: answer %v violates (1+ε)×%v", degrade, i, d, optimal[i])
			}
			if d < optimal[i]-1e-6 {
				t.Fatalf("degrade=%v query %d: answer %v better than optimal %v", degrade, i, d, optimal[i])
			}
		}
		eng.Close()
	}
}

// TestLiveDoSpectrum: the live index serves the spectrum over base+delta;
// series still in the delta are always answered exactly, whatever the
// mode.
func TestLiveDoSpectrum(t *testing.T) {
	lix, err := BuildLiveFlat(RandomWalk(1500, 64, 101), 64,
		&Options{LeafCapacity: 64, SearchWorkers: 4},
		&LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer lix.Close()
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 4000 + float32(i)
	}
	pos, err := lix.Append(novel)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeExact, ModeApprox, ModeEpsilon, ModeDeadline} {
		res, err := lix.Do(context.Background(), SearchRequest{Query: novel, Mode: mode, Epsilon: 0.1, Deadline: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best().Position != pos || res.Best().Distance != 0 {
			t.Fatalf("mode %v: delta series answered %+v, want exact position %d", mode, res.Best(), pos)
		}
	}

	// An empty base (delta-only index): the exhaustive delta scan is the
	// whole answer, so even ModeApprox is exact.
	fresh, err := NewLive(64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	only := RandomWalk(1, 64, 103)
	if _, err := fresh.Append(only); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Do(context.Background(), SearchRequest{Query: only, Mode: ModeApprox})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Best().Distance != 0 {
		t.Fatalf("delta-only approx query: %+v, want exact self-match", res)
	}
}
