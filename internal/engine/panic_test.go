package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// TestWorkerPanicFailsOnlyThatQuery is the panic-isolation contract: a
// query that panics on a pool worker fails with ErrQueryPanicked while
// every concurrent query on the same engine completes with the exact
// answer, and the pool keeps serving afterwards. The panic is injected
// through the engine.unit failpoint (one-shot, so exactly one query is
// poisoned regardless of scheduling).
func TestWorkerPanicFailsOnlyThatQuery(t *testing.T) {
	ix, qs := testIndex(t)
	for _, tc := range []struct {
		name string
		mk   func(reg *metrics.Registry) *Engine
	}{
		{"one shard", func(reg *metrics.Registry) *Engine {
			return New(ix, Options{PoolWorkers: 8, Metrics: reg})
		}},
		{"two shards", func(reg *metrics.Registry) *Engine {
			sx, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
			if err != nil {
				t.Fatal(err)
			}
			return New(sx, Options{PoolWorkers: 8, Metrics: reg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.DisarmAll)
			reg := metrics.NewRegistry()
			e := tc.mk(reg)
			defer e.Close()

			want := make([]core.Match, qs.Count())
			for i := range want {
				m, err := spawn1(ix, qs.At(i))
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
				"Query panics recovered on pool workers (each failed only its own query).").Value(); got != 1 {
				t.Fatalf("messi_query_panics_total = %d, want 1", got)
			}

			// The pool survived: the same engine keeps answering exactly.
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
// two-shard generations — there is one pooled path, so each must be
// isolated the same way. First the panic is injected at the deepest point,
// inside core's leaf scan (an Error spec: scanLeaf has no error return and
// panics with the injected error, which panicErr keeps matchable through
// the sentinel); then inside a dispatched work unit. Either way the query
// fails alone with ErrQueryPanicked, its QueryStates never return to the
// pool, and the next query on the same pool is answered exactly.
func TestQueryPanicIsolated(t *testing.T) {
	ix, qs := testIndex(t)
	two, err := shard.Build(testData(t), 2, core.Options{LeafCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
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
	for _, sx := range []*shard.Index{ix, two} {
		for _, fl := range flavours {
			for _, ft := range faults {
				t.Run(fmt.Sprintf("S=%d/%s/%s", sx.NumShards(), fl.name, ft.point), func(t *testing.T) {
					t.Cleanup(fault.DisarmAll)
					e := New(sx, Options{PoolWorkers: 4})
					defer e.Close()
					// Count the states the pool hands out from scratch: a
					// state that came back after the panic would be reused
					// by the next query instead.
					var fresh atomic.Int64
					e.states.New = func() any { fresh.Add(1); return core.NewQueryState() }

					if err := fault.Arm(ft.point, ft.spec); err != nil {
						t.Fatal(err)
					}
					req := fl.req
					req.Query = qs.At(0)
					_, err := e.Do(req, nil)
					if !errors.Is(err, ErrQueryPanicked) {
						t.Fatalf("err = %v, want ErrQueryPanicked", err)
					}
					if ft.spec.Action == fault.Error && !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
					}
					poisoned := fresh.Load()

					// Disarmed (one-shot): the same pool answers the next
					// query exactly, on states it did not get back.
					req.Query, req.Mode = qs.At(1), core.ModeExact
					want, err := sx.Do(req, nil, core.SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Do(req, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("after recovery: got %+v, want %+v", got, want)
					}
					if made := fresh.Load() - poisoned; made != int64(sx.NumShards()) {
						t.Fatalf("next query drew %d fresh states, want %d: poisoned states went back to the pool",
							made, sx.NumShards())
					}
				})
			}
		}
	}
}
