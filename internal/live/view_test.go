package live

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/series"
)

// sample reads one unlabeled series from a registry's text exposition.
func sample(t *testing.T, r *metrics.Registry, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s is not exposed", name)
	return ""
}

// TestLiveQueryPanicIsolated: the delta is searched on the engine's pool,
// inside its panic isolation. A unit of query work that panics — for an
// index with no generation that can only be a delta chunk's scan — fails
// that one query with ErrQueryPanicked; the process lives, and the next
// query on the same index is answered exactly.
func TestLiveQueryPanicIsolated(t *testing.T) {
	const length = 64
	rows := walk(400, length, 21)
	queries := walk(2, length, 22)
	window := dtw.WindowSize(length, 0.1)
	oracle := bruteForce(t, rows)
	flavours := []struct {
		name string
		req  core.Request
	}{
		{"1-NN", core.Request{}},
		{"k=5", core.Request{K: 5}},
		{"DTW", core.Request{DTW: true, Window: window}},
	}
	for _, S := range []int{1, 2} {
		for _, based := range []bool{true, false} {
			for _, fl := range flavours {
				t.Run(fmt.Sprintf("S=%d/generation=%v/%s", S, based, fl.name), func(t *testing.T) {
					t.Cleanup(fault.DisarmAll)
					opts := smallOpts(1 << 30)
					opts.Shards = S
					var initial *series.Collection
					appended := rows
					if based {
						initial, appended = collection(t, rows[:250]), rows[250:]
					}
					ix, err := New(length, initial, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer ix.Close()
					if _, err := ix.AppendBatch(appended); err != nil {
						t.Fatal(err)
					}

					if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic}); err != nil {
						t.Fatal(err)
					}
					req := fl.req
					req.Query = queries[0]
					if _, err := ix.Do(req); !errors.Is(err, engine.ErrQueryPanicked) {
						t.Fatalf("err = %v, want ErrQueryPanicked", err)
					}

					// Disarmed (one-shot): the next query is exact.
					req.Query = queries[1]
					want, err := oracle.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ix.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Exact || len(got.Matches) != len(want.Matches) {
						t.Fatalf("after recovery: got %+v, want %+v", got, want)
					}
					for i := range got.Matches {
						if got.Matches[i] != want.Matches[i] {
							t.Fatalf("after recovery: match %d is %+v, brute force %+v", i, got.Matches[i], want.Matches[i])
						}
					}
				})
			}
		}
	}
}

// TestRejectedBeforeTheGate: the live index does not validate — it hands
// its view to the engine, which checks a request once, before admission.
// So a malformed request leaves no trace at the gate or in the delta, and
// a well-formed one is admitted exactly once.
func TestRejectedBeforeTheGate(t *testing.T) {
	const length = 32
	reg := metrics.NewRegistry()
	opts := smallOpts(1 << 30)
	opts.Metrics = reg
	ix, err := New(length, collection(t, walk(50, length, 31)), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.AppendBatch(walk(20, length, 32)); err != nil {
		t.Fatal(err)
	}
	good := walk(1, length, 33)[0]
	for _, tc := range []struct {
		name string
		req  core.Request
		want error
	}{
		{"wrong length", core.Request{Query: good[:5]}, core.ErrWrongLength},
		{"negative k", core.Request{Query: good, K: -1}, core.ErrBadK},
		{"negative epsilon", core.Request{Query: good, Mode: core.ModeEpsilon, Epsilon: -1}, core.ErrBadEpsilon},
		{"k-NN under DTW", core.Request{Query: good, K: 3, DTW: true, Window: 3}, core.ErrBadK},
	} {
		if _, err := ix.Do(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, name := range []string{"messi_queries_admitted_total", "messi_admission_wait_seconds_count", "messi_real_dist_calcs_total"} {
		if got := sample(t, reg, name); got != "0" {
			t.Errorf("after four malformed requests %s = %s, want 0", name, got)
		}
	}
	if _, err := nn1(ix, good); err != nil {
		t.Fatal(err)
	}
	if got := sample(t, reg, "messi_queries_admitted_total"); got != "1" {
		t.Errorf("after one well-formed request messi_queries_admitted_total = %s, want 1", got)
	}
	if got := sample(t, reg, "messi_real_dist_calcs_total"); got == "0" {
		t.Error("the delta scan and tree search of an admitted request counted no distance")
	}
}

// TestEngineShardsGauge: messi_engine_shards follows the generation the
// index currently publishes — the index feeds it, the engine holds none.
func TestEngineShardsGauge(t *testing.T) {
	const length = 32
	one := metrics.NewRegistry()
	opts := smallOpts(1 << 30)
	opts.Metrics = one
	ix1, err := New(length, collection(t, walk(40, length, 41)), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix1.Close()
	if got := sample(t, one, "messi_engine_shards"); got != "1" {
		t.Errorf("unsharded generation: messi_engine_shards = %s, want 1", got)
	}

	four := metrics.NewRegistry()
	opts.Metrics, opts.Shards = four, 4
	ix4, err := New(length, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix4.Close()
	if got := sample(t, four, "messi_engine_shards"); got != "0" {
		t.Errorf("no generation yet: messi_engine_shards = %s, want 0", got)
	}
	if _, err := ix4.AppendBatch(walk(40, length, 42)); err != nil {
		t.Fatal(err)
	}
	if err := ix4.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sample(t, four, "messi_engine_shards"); got != "4" {
		t.Errorf("after the first rebuild: messi_engine_shards = %s, want 4", got)
	}
}
