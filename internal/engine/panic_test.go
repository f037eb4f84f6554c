package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/series"
	"repro/internal/shard"
)

// TestWorkerPanicFailsOnlyThatQuery is the panic-isolation contract: a
// query that panics on one of its workers fails with ErrQueryPanicked
// while every concurrent query on the same engine completes with the exact
// answer, and the engine keeps serving afterwards. The panic is injected
// through the engine.unit failpoint (one-shot, so exactly one query is
// poisoned regardless of scheduling).
func TestWorkerPanicFailsOnlyThatQuery(t *testing.T) {
	ix, qs := testIndex(t)
	for _, tc := range []struct {
		name string
		mk   func(reg *metrics.Registry) *served
	}{
		{"one shard", func(reg *metrics.Registry) *served {
			return serve(ix, Options{PoolWorkers: 8, Metrics: reg})
		}},
		{"two shards", func(reg *metrics.Registry) *served {
			sx, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
			if err != nil {
				t.Fatal(err)
			}
			return serve(sx, Options{PoolWorkers: 8, Metrics: reg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			reg := metrics.NewRegistry()
			e := tc.mk(reg)
			defer e.Close()

			want := make([]core.Match, qs.Count())
			for i := range want {
				m, err := brute1(ix, qs.At(i))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = m
			}

			if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				errs    []error
				wrong   int
				correct int
			)
			for i := 0; i < qs.Count(); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := pool1(e, qs.At(i))
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						errs = append(errs, err)
						return
					}
					if got != want[i] {
						wrong++
						return
					}
					correct++
				}(i)
			}
			wg.Wait()
			// Exactly one query was poisoned (one-shot failpoint); it must
			// carry the typed sentinel, and nobody else may be disturbed.
			if len(errs) != 1 {
				t.Fatalf("got %d failed queries, want exactly 1 (errs: %v)", len(errs), errs)
			}
			if !errors.Is(errs[0], ErrQueryPanicked) {
				t.Fatalf("poisoned query error = %v, want ErrQueryPanicked", errs[0])
			}
			if wrong != 0 {
				t.Fatalf("%d concurrent queries returned wrong answers", wrong)
			}
			if correct != qs.Count()-1 {
				t.Fatalf("%d concurrent queries completed exactly, want %d", correct, qs.Count()-1)
			}
			if got := reg.Counter("messi_query_panics_total",
				"Query panics recovered on query worker goroutines (each failed only its own query).").Value(); got != 1 {
				t.Fatalf("messi_query_panics_total = %d, want 1", got)
			}

			// The engine survived: it keeps answering exactly.
			for i := 0; i < qs.Count(); i++ {
				got, err := pool1(e, qs.At(i))
				if err != nil {
					t.Fatalf("query %d after panic: %v", i, err)
				}
				if got != want[i] {
					t.Fatalf("query %d after panic: got %+v, want %+v", i, got, want[i])
				}
			}
		})
	}
}

// TestQueryPanicIsolated walks every request flavour over one- and
// two-shard generations, alone and with a delta beside them, and over a
// delta with no generation at all — there is one execution path, so each must
// be isolated the same way. First the panic is injected at the deepest
// point, inside core's leaf scan (an Error spec: scanLeaf has no error
// return and panics with the injected error, which panicErr keeps matchable
// through the sentinel); then inside a unit of query work, which a delta
// chunk's scan is like any other. Either way the query fails alone with
// ErrQueryPanicked, its QueryStates never return to the pool, and the next
// query on the same engine is answered exactly. Each case runs twice: with
// random-walk queries and with OOD queries, which the shards scan instead of
// using their trees — the leaf-scan point must be isolated on both plans.
func TestQueryPanicIsolated(t *testing.T) {
	ix, qs := testIndex(t)
	data := testData(t)
	two, err := shard.Build(data, 2, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 300 more series after the generation's, as two delta chunks, and the
	// whole collection, whose brute-force answers views with a delta must
	// match.
	extra, err := dataset.Generate(dataset.RandomWalk, 300, testLength, 71)
	if err != nil {
		t.Fatal(err)
	}
	all, err := series.NewCollection(append(append([]float32(nil), data.Data...), extra.Data...), testLength)
	if err != nil {
		t.Fatal(err)
	}
	delta := chunks(t, all, testSeries, all.Count(), 200)
	views := []struct {
		name string
		view View
		want *series.Collection // the series the view holds
		off  int                // position of want's first series in the view
	}{
		{"S=1", View{Base: ix}, data, 0},
		{"S=2", View{Base: two}, data, 0},
		{"S=1+delta", View{Base: ix, Delta: delta}, all, 0},
		{"S=2+delta", View{Base: two, Delta: delta}, all, 0},
		{"delta", View{Delta: delta}, extra, testSeries},
	}
	plans := []struct {
		prefix         string // of the subtest names
		poisoned, next []float32
	}{
		{"", qs.At(0), qs.At(1)},
		{"ood/", oodQuery(1), oodQuery(2)},
	}
	sawPlan := map[bool]bool{} // scan plans seen under the leaf-scan point
	window := dtw.WindowSize(testLength, 0.1)
	flavours := []struct {
		name string
		req  core.Request
	}{
		{"1-NN", core.Request{}},
		{"k=5", core.Request{K: 5}},
		{"DTW", core.Request{DTW: true, Window: window}},
		{"epsilon", core.Request{Mode: core.ModeEpsilon, Epsilon: 0.05}},
	}
	faults := []struct {
		point string
		spec  fault.Spec
	}{
		{"core.scanleaf", fault.Spec{Action: fault.Error}},
		{"engine.unit", fault.Spec{Action: fault.Panic}},
	}
	for _, vw := range views {
		for _, fl := range flavours {
			for _, ft := range faults {
				for _, pl := range plans {
					if vw.view.Base == nil && ft.point == "core.scanleaf" {
						continue // no tree, no leaf scan
					}
					t.Run(fmt.Sprintf("%s%s/%s/%s", pl.prefix, vw.name, fl.name, ft.point), func(t *testing.T) {
						t.Cleanup(fault.DisarmAll)
						e := New(ix.Opts(), Options{PoolWorkers: 4})
						defer e.Close()
						// Count the states the pool hands out from scratch: a
						// state that came back after the panic would be reused
						// by the next query instead.
						var fresh atomic.Int64
						e.states.New = func() any { fresh.Add(1); return core.NewQueryState() }

						req := fl.req
						req.Query = pl.poisoned
						if ft.point == "core.scanleaf" {
							probe, err := e.Do(vw.view, req)
							if err != nil {
								t.Fatal(err)
							}
							sawPlan[probe.Tally.ScanPlans > 0] = true
						}
						if err := fault.Arm(ft.point, ft.spec); err != nil {
							t.Fatal(err)
						}
						_, err := e.Do(vw.view, req)
						if !errors.Is(err, ErrQueryPanicked) {
							t.Fatalf("err = %v, want ErrQueryPanicked", err)
						}
						if ft.spec.Action == fault.Error && !errors.Is(err, fault.ErrInjected) {
							t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
						}
						poisoned := fresh.Load()

						// Disarmed (one-shot): the same engine answers the next
						// query exactly, on states it did not get back.
						req.Query, req.Mode = pl.next, core.ModeExact
						want := brute(t, vw.want, req)
						for i := range want.Matches {
							want.Matches[i].Position += vw.off
						}
						got, err := e.Do(vw.view, req)
						if err != nil {
							t.Fatal(err)
						}
						got.Tally = want.Tally // the brute force counts nothing
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("after recovery: got %+v, want %+v", got, want)
						}
						states := 0
						if vw.view.Base != nil {
							states = vw.view.Base.NumShards()
						}
						if made := fresh.Load() - poisoned; made != int64(states) {
							t.Fatalf("next query drew %d fresh states, want %d: poisoned states went back to the pool",
								made, states)
						}
					})
				}
			}
		}
	}
	if !sawPlan[false] || !sawPlan[true] {
		t.Fatalf("the leaf-scan point was armed on tree plans %v, scan plans %v: want both", sawPlan[false], sawPlan[true])
	}
}
