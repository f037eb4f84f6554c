// The paper's evaluation (§IV, Figures 5-19) as testing.B benchmarks: the
// repository's one figure suite. Each BenchmarkFigNN condenses the
// corresponding figure's sweep into sub-benchmarks, and its doc comment
// states the paper's claim — what the curve should look like.
// docs/REPRODUCTION.md holds the command, one measured run and, per
// figure, whether the claim reproduces on the box it was run on.
//
// Workloads are scaled down (20K series instead of the paper's 100M, leaf
// capacity scaled with them) so `go test -bench=.` completes in minutes.
// Tier-1 (`go test ./...`) compiles this file but runs no benchmark; CI's
// perf-smoke job is what executes every one of them, once
// (`-bench=. -benchtime=1x`).
package messi

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/paris"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/stats"
)

const (
	benchSeries  = 20000
	benchLength  = 256
	benchQueries = 8
	benchLeafCap = 100 // benchSeries/200: the paper's 2000-series leaves would never split at this scale
	benchDTWSize = 2000
)

// benchData lazily generates and caches collections per (kind, count).
var (
	benchMu    sync.Mutex
	benchCache = map[string]*series.Collection{}
)

func benchCollection(b *testing.B, kind dataset.Kind, count int) *series.Collection {
	b.Helper()
	length := benchLength
	if kind == dataset.SALDLike {
		length = 128
	}
	key := fmt.Sprintf("%s/%d", kind, count)
	benchMu.Lock()
	defer benchMu.Unlock()
	if c, ok := benchCache[key]; ok {
		return c
	}
	c, err := dataset.Generate(kind, count, length, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchCache[key] = c
	return c
}

func benchQueriesFor(b *testing.B, kind dataset.Kind) *series.Collection {
	b.Helper()
	length := benchLength
	if kind == dataset.SALDLike {
		length = 128
	}
	key := fmt.Sprintf("queries/%s", kind)
	benchMu.Lock()
	defer benchMu.Unlock()
	if c, ok := benchCache[key]; ok {
		return c
	}
	c, err := dataset.Queries(kind, benchQueries, length, 1001)
	if err != nil {
		b.Fatal(err)
	}
	benchCache[key] = c
	return c
}

// messiOpts scales ChunkSize down with the collection: at the paper's 20K
// series per chunk the whole benchmark collection would be one Fetch&Inc
// unit, and phase 1 would run on one worker whatever IndexWorkers says.
// benchSeries/20 = 1000 sits where Fig 5 finds build time flat.
func messiOpts() core.Options {
	return core.Options{LeafCapacity: benchLeafCap, ChunkSize: benchSeries / 20}
}
func parisOpts() paris.Options { return paris.Options{LeafCapacity: benchLeafCap} }

func buildMESSI(b *testing.B, data *series.Collection, opts core.Options) *shard.Index {
	b.Helper()
	ix, err := shard.Build(data, 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// messiDo answers queries on ix through the query engine without an
// admission gate — root Index.Do's path — with workers worker goroutines
// per query and queues priority
// queues (zero: the index's SearchWorkers and QueueCount). Build it outside
// the timed loop.
func messiDo(ix *shard.Index, workers, queues int) func(core.Request) error {
	run := messiRun(ix, workers, queues)
	return func(req core.Request) error {
		_, err := run(req)
		return err
	}
}

// messiRun is messiDo returning the result, for the figures that read its
// tally.
func messiRun(ix *shard.Index, workers, queues int) func(core.Request) (core.Result, error) {
	e := engine.NewUngated(ix.Opts(), engine.Options{PoolWorkers: workers, Queues: queues})
	v := engine.View{Base: ix}
	return func(req core.Request) (core.Result, error) { return e.Do(v, req) }
}

func buildParIS(b *testing.B, data *series.Collection, opts paris.Options) *paris.Index {
	b.Helper()
	ix, err := paris.Build(data, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkFig05ChunkSize — index creation vs. chunk size.
// Paper: flat beyond 1K-series chunks; small chunks pay Fetch&Inc
// contention (20K chosen).
func BenchmarkFig05ChunkSize(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	for _, chunk := range []int{10, 100, 1000, 20000} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			opts := messiOpts()
			opts.ChunkSize = chunk
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildMESSI(b, data, opts)
			}
		})
	}
}

// BenchmarkFig06LeafSizeBuild — index creation vs. leaf size.
// Paper: build time falls with leaf size (fewer splits) and flattens past
// ~5K-series leaves.
func BenchmarkFig06LeafSizeBuild(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	for _, leaf := range []int{50, 200, 1000, 5000} {
		b.Run(fmt.Sprintf("leaf=%d", leaf), func(b *testing.B) {
			opts := messiOpts()
			opts.LeafCapacity = leaf
			for i := 0; i < b.N; i++ {
				buildMESSI(b, data, opts)
			}
		})
	}
}

// BenchmarkFig07LeafSizeQuery — query answering vs. leaf size (sq and mq).
// Paper: U-shaped, with the minimum at mid-range leaves (2K at 100M-series
// scale).
func BenchmarkFig07LeafSizeQuery(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	for _, leaf := range []int{50, 200, 1000, 5000} {
		opts := messiOpts()
		opts.LeafCapacity = leaf
		ix := buildMESSI(b, data, opts)
		for _, mode := range []struct {
			name   string
			queues int
		}{{"sq", 1}, {"mq", 0}} {
			do := messiDo(ix, 0, mode.queues)
			b.Run(fmt.Sprintf("leaf=%d/%s", leaf, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q := queries.At(i % queries.Count())
					if err := do(core.Request{Query: q}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig09BuildCores — index creation vs. worker count, ParIS vs
// MESSI. Paper: both scale with cores, MESSI ~3.5x faster at 24 workers.
// A worker sweep beyond the host's core count cannot show hardware
// speedup.
func BenchmarkFig09BuildCores(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	for _, workers := range []int{1, 4, 24} {
		b.Run(fmt.Sprintf("ParIS/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opts := parisOpts()
			opts.IndexWorkers = workers
			for i := 0; i < b.N; i++ {
				buildParIS(b, data, opts)
			}
		})
		b.Run(fmt.Sprintf("MESSI/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opts := messiOpts()
			opts.IndexWorkers = workers
			for i := 0; i < b.N; i++ {
				buildMESSI(b, data, opts)
			}
		})
	}
}

// BenchmarkFig10BuildDataSize — index creation vs. data size, ParIS vs
// MESSI. Paper: MESSI up to 4.2x faster, the gap growing with size.
func BenchmarkFig10BuildDataSize(b *testing.B) {
	for _, n := range []int{benchSeries / 2, benchSeries, benchSeries * 2} {
		data := benchCollection(b, dataset.RandomWalk, n)
		b.Run(fmt.Sprintf("ParIS/series=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildParIS(b, data, parisOpts())
			}
		})
		b.Run(fmt.Sprintf("MESSI/series=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildMESSI(b, data, messiOpts())
			}
		})
	}
}

// queryBenchAlgos runs one sub-benchmark per algorithm on a prepared pair
// of indexes.
func queryBenchAlgos(b *testing.B, data *series.Collection, queries *series.Collection,
	messiIx *shard.Index, parisIx *paris.Index, workers int, prefix string) {

	run := func(name string, fn func(q []float32) error) {
		b.Run(prefix+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(queries.At(i % queries.Count())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("UCR-P", func(q []float32) error {
		_, err := scan.Search1NN(data, q, workersOrDefault(workers, 48), nil)
		return err
	})
	run("ParIS", func(q []float32) error {
		_, err := parisIx.Search(q, paris.SearchOptions{Workers: workers})
		return err
	})
	run("ParIS-TS", func(q []float32) error {
		_, err := parisIx.SearchTS(q, paris.SearchOptions{Workers: workers})
		return err
	})
	sq, mq := messiDo(messiIx, workers, 1), messiDo(messiIx, workers, 0)
	run("MESSI-sq", func(q []float32) error { return sq(core.Request{Query: q}) })
	run("MESSI-mq", func(q []float32) error { return mq(core.Request{Query: q}) })
}

func workersOrDefault(workers, def int) int {
	if workers > 0 {
		return workers
	}
	return def
}

// BenchmarkFig11QueryCores — query answering vs. worker count, all
// algorithms. Paper: MESSI-mq fastest (55x over UCR Suite-P, 6.35x over
// ParIS at 48 threads); a host with fewer cores flattens the scaling.
func BenchmarkFig11QueryCores(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	messiIx := buildMESSI(b, data, messiOpts())
	parisIx := buildParIS(b, data, parisOpts())
	for _, workers := range []int{2, 8, 48} {
		queryBenchAlgos(b, data, queries, messiIx, parisIx, workers,
			fmt.Sprintf("workers=%d/", workers))
	}
}

// BenchmarkFig12QueryDataSize — query answering vs. data size, all
// algorithms. Paper: MESSI up to 61x over UCR Suite-P, 6.35x over ParIS,
// 7.4x over ParIS-TS across sizes.
func BenchmarkFig12QueryDataSize(b *testing.B) {
	for _, n := range []int{benchSeries / 2, benchSeries * 2} {
		data := benchCollection(b, dataset.RandomWalk, n)
		queries := benchQueriesFor(b, dataset.RandomWalk)
		messiIx := buildMESSI(b, data, messiOpts())
		parisIx := buildParIS(b, data, parisOpts())
		queryBenchAlgos(b, data, queries, messiIx, parisIx, 0,
			fmt.Sprintf("series=%d/", n))
	}
}

// BenchmarkFig13QueueBreakdown — MESSI-sq vs MESSI-mq with the per-phase
// breakdown reported as custom metrics (ns per query, summed over workers
// — the paper's stacked bars). Paper: mq cuts the priority-queue insert
// and remove time; distance calculation dominates both.
func BenchmarkFig13QueueBreakdown(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix := buildMESSI(b, data, messiOpts())
	for _, mode := range []struct {
		name   string
		queues int
	}{{"sq", 1}, {"mq", 0}} {
		run := messiRun(ix, 0, mode.queues)
		b.Run(mode.name, func(b *testing.B) {
			var sum stats.Tally
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				res, err := run(core.Request{Query: q, Trace: true})
				if err != nil {
					b.Fatal(err)
				}
				sum.Add(res.Tally)
			}
			for p, d := range sum.Phases {
				// Metric units must not contain whitespace.
				unit := strings.ReplaceAll(stats.Phase(p).String(), " ", "-") + "-ns/q"
				b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), unit)
			}
		})
	}
}

// BenchmarkFig14QueueCount — query answering vs. number of queues.
// Paper: time falls with the queue count, minimum around 24 queues.
func BenchmarkFig14QueueCount(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix := buildMESSI(b, data, messiOpts())
	for _, queues := range []int{1, 4, 24, 48} {
		do := messiDo(ix, 0, queues)
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if err := do(core.Request{Query: q}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15BuildReal — index creation on the real-data stand-ins.
// Paper: MESSI 3.6x (SALD) and 3.7x (Seismic) faster than ParIS at 24
// workers.
func BenchmarkFig15BuildReal(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.SALDLike, dataset.SeismicLike} {
		data := benchCollection(b, kind, benchSeries)
		b.Run(string(kind)+"/ParIS", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildParIS(b, data, parisOpts())
			}
		})
		b.Run(string(kind)+"/MESSI", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildMESSI(b, data, messiOpts())
			}
		})
	}
}

// BenchmarkFig16QueryReal — query answering on the real-data stand-ins,
// all algorithms. Paper: MESSI 60x/8.4x (SALD) and 80x/11x (Seismic) over
// UCR Suite-P/ParIS; real data prunes worse than random walks.
func BenchmarkFig16QueryReal(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.SALDLike, dataset.SeismicLike} {
		data := benchCollection(b, kind, benchSeries)
		queries := benchQueriesFor(b, kind)
		messiIx := buildMESSI(b, data, messiOpts())
		parisIx := buildParIS(b, data, parisOpts())
		queryBenchAlgos(b, data, queries, messiIx, parisIx, 0, string(kind)+"/")
	}
}

// BenchmarkFig17DistanceCounts — lower-bound and real distance calculation
// counts (reported as custom metrics), ParIS vs MESSI. Paper: MESSI
// performs no more than 15% of ParIS's lower-bound calculations and fewer
// real-distance calculations (the direction is asserted by
// internal/paris's TestFig17ShapeHolds).
func BenchmarkFig17DistanceCounts(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.RandomWalk, dataset.SeismicLike, dataset.SALDLike} {
		data := benchCollection(b, kind, benchSeries)
		queries := benchQueriesFor(b, kind)
		messiIx := buildMESSI(b, data, messiOpts())
		parisIx := buildParIS(b, data, parisOpts())
		b.Run(string(kind)+"/ParIS", func(b *testing.B) {
			var sum stats.Tally
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if _, err := parisIx.Search(q, paris.SearchOptions{Tally: &sum}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sum.LowerBoundCalcs)/float64(b.N), "lb/query")
			b.ReportMetric(float64(sum.RealDistCalcs)/float64(b.N), "real/query")
		})
		run := messiRun(messiIx, 0, 0)
		b.Run(string(kind)+"/MESSI", func(b *testing.B) {
			var sum stats.Tally
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				res, err := run(core.Request{Query: q})
				if err != nil {
					b.Fatal(err)
				}
				sum.Add(res.Tally)
			}
			b.ReportMetric(float64(sum.LowerBoundCalcs)/float64(b.N), "lb/query")
			b.ReportMetric(float64(sum.RealDistCalcs)/float64(b.N), "real/query")
		})
	}
}

// BenchmarkFig18BenefitBreakdown — ParIS-SISD → ParIS → ParIS-TS →
// MESSI-mq. Paper: SIMD makes ParIS 60% faster than ParIS-SISD, ParIS-TS
// is ~10% over ParIS, MESSI-mq 83% over ParIS-TS.
func BenchmarkFig18BenefitBreakdown(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	messiIx := buildMESSI(b, data, messiOpts())
	parisIx := buildParIS(b, data, parisOpts())
	run := func(name string, fn func(q []float32) error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(queries.At(i % queries.Count())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("ParIS-SISD", func(q []float32) error {
		_, err := parisIx.Search(q, paris.SearchOptions{Kernel: paris.KernelSISD})
		return err
	})
	run("ParIS", func(q []float32) error {
		_, err := parisIx.Search(q, paris.SearchOptions{})
		return err
	})
	run("ParIS-TS", func(q []float32) error {
		_, err := parisIx.SearchTS(q, paris.SearchOptions{})
		return err
	})
	mq := messiDo(messiIx, 0, 0)
	run("MESSI-mq", func(q []float32) error { return mq(core.Request{Query: q}) })
}

// BenchmarkFig19DTW — DTW query answering (10% warping window): serial UCR
// Suite, UCR Suite-P, MESSI-DTW. Paper: MESSI-DTW up to 34x over UCR
// Suite-P DTW and three orders of magnitude over the serial UCR Suite.
func BenchmarkFig19DTW(b *testing.B) {
	for _, n := range []int{benchDTWSize, benchDTWSize * 2} {
		data := benchCollection(b, dataset.RandomWalk, n)
		queries := benchQueriesFor(b, dataset.RandomWalk)
		ix := buildMESSI(b, data, messiOpts())
		window := dtw.WindowSize(benchLength, 0.1)
		b.Run(fmt.Sprintf("series=%d/UCR-DTW-serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if _, err := scan.SearchDTW(data, q, window, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("series=%d/UCR-P-DTW", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if _, err := scan.SearchDTW(data, q, window, 48, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		do := messiDo(ix, 0, 0)
		b.Run(fmt.Sprintf("series=%d/MESSI-DTW", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if err := do(core.Request{Query: q, DTW: true, Window: window}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughput — sustained concurrent query traffic, the
// serving scenario beyond the paper's one-query-at-a-time evaluation:
// `clients` goroutines each issue 1-NN queries as fast as they are
// answered. Modes:
//
//   - spawn-per-query: the engine without an admission gate (root
//     Index.Do's path), every query admitted at once with Ns workers;
//   - pooled-exclusive: the gated engine, which sizes each query from
//     its plan: a tree-plan query takes one worker token and borrows the
//     idle ones, a scan-plan query waits for them all.
//
// Every mode starts its workers per query (Algorithm 6); the "pooled"
// names are kept so results stay comparable across history.
func BenchmarkEngineThroughput(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix := buildMESSI(b, data, messiOpts())

	runClients := func(b *testing.B, clients int, query func(q []float32) error) {
		b.Helper()
		b.ReportAllocs()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= b.N {
						return
					}
					if err := query(queries.At(i % queries.Count())); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d/spawn-per-query", clients), func(b *testing.B) {
			do := messiDo(ix, 0, 0)
			runClients(b, clients, func(q []float32) error { return do(core.Request{Query: q}) })
		})
		b.Run(fmt.Sprintf("clients=%d/pooled-exclusive", clients), func(b *testing.B) {
			eng := engine.New(ix.Opts(), engine.Options{})
			defer eng.Close()
			runClients(b, clients, func(q []float32) error {
				_, err := eng.Do(engine.View{Base: ix}, core.Request{Query: q})
				return err
			})
		})
	}
}

// BenchmarkMetricsOverhead — the cost of the observability layer on the
// serving hot path: sustained engine throughput with a metrics registry
// attached versus without one (the library default, a nil registry that
// reduces every instrument to a nil check). The off case shares the
// bench-compare regression gate with BenchmarkEngineThroughput; the on
// case bounds what production servers pay for /metrics.
func BenchmarkMetricsOverhead(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix := buildMESSI(b, data, messiOpts())

	run := func(b *testing.B, reg *metrics.Registry) {
		b.Helper()
		b.ReportAllocs()
		eng := engine.New(ix.Opts(), engine.Options{Metrics: reg})
		defer eng.Close()
		const clients = 8
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= b.N {
						return
					}
					if _, err := eng.Do(engine.View{Base: ix}, core.Request{Query: queries.At(i % queries.Count())}); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.Run("metrics=off", func(b *testing.B) { run(b, nil) })
	b.Run("metrics=on", func(b *testing.B) { run(b, metrics.NewRegistry()) })
}

// BenchmarkSnapshotLoad — restart cost: loading a snapshot versus
// rebuilding the index from raw data (the win snapshots exist for; the
// ROADMAP's restart-without-downtime scenario). Load skips the whole
// construction pipeline — PAA transforms, quantization, splits — and
// reads the checksummed series block in one pass.
func BenchmarkSnapshotLoad(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	ix, err := BuildFlat(data.Data, benchLength, &Options{LeafCapacity: benchLeafCap})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.snap")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildFlat(data.Data, benchLength, &Options{LeafCapacity: benchLeafCap}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKNN — the k-NN extension across k (the paper's k-NN
// classification use case).
func BenchmarkKNN(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix := buildMESSI(b, data, messiOpts())
	do := messiDo(ix, 0, 0)
	for _, k := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if err := do(core.Request{Query: q, K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntroClaims — the paper's introduction frames MESSI against the
// whole lineage: optimized serial scan (UCR Suite, 1 thread), the
// sequential index (the ADS+ stand-in: the MESSI tree built and queried by
// one worker with one queue — the same tree and bounds, no parallelism), the parallel
// index (ParIS), and MESSI. The §I ordering — each step roughly an order
// faster at paper scale — compresses on one core but must keep direction.
func BenchmarkIntroClaims(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	// The same tree and the same bounds on one thread: one construction
	// worker, one search worker, one queue.
	serialIx := buildMESSI(b, data, core.Options{LeafCapacity: benchLeafCap, IndexWorkers: 1, SearchWorkers: 1, QueueCount: 1})
	parisIx := buildParIS(b, data, parisOpts())
	messiIx := buildMESSI(b, data, messiOpts())
	b.Run("serial-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries.At(i % queries.Count())
			if _, err := scan.Search1NN(data, q, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	serial, messi := messiDo(serialIx, 0, 0), messiDo(messiIx, 0, 0)
	b.Run("sequential-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries.At(i % queries.Count())
			if err := serial(core.Request{Query: q}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries.At(i % queries.Count())
			if _, err := parisIx.Search(q, paris.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MESSI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := queries.At(i % queries.Count())
			if err := messi(core.Request{Query: q}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedBuild — the sharded-build claim: S independent trees of
// n/S series, constructed concurrently with the index workers divided
// among them, finish faster than one tree of n series (shallower splits,
// smaller per-tree working sets, and no cross-shard synchronization).
// shards=1 is the single-tree baseline the CI gate tracks.
func BenchmarkShardedBuild(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	for _, S := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", S), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shard.Build(data, S, messiOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQuery — exact 1-NN latency of the fan-out (shared BSF
// across shards) versus the single tree.
func BenchmarkShardedQuery(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	for _, S := range []int{1, 2, 4, 8} {
		x, err := shard.Build(data, S, messiOpts())
		if err != nil {
			b.Fatal(err)
		}
		do := messiDo(x, 0, 0)
		b.Run(fmt.Sprintf("shards=%d", S), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries.At(i % queries.Count())
				if err := do(core.Request{Query: q}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxQuery — latency of the one-leaf-scan approximate answer
// through the unified Do API, the cheap end of the quality spectrum.
func BenchmarkApproxQuery(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix, err := BuildFlat(data.Data, data.Length, &Options{LeafCapacity: benchLeafCap})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.At(i % queries.Count())
		if _, err := ix.Do(ctx, SearchRequest{Query: q, Mode: ModeApprox}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpsilonQuery — ε-bounded 1-NN latency at ε=0.05 versus the
// exact search on the same index: the price of the (1+ε) guarantee.
func BenchmarkEpsilonQuery(b *testing.B) {
	data := benchCollection(b, dataset.RandomWalk, benchSeries)
	queries := benchQueriesFor(b, dataset.RandomWalk)
	ix, err := BuildFlat(data.Data, data.Length, &Options{LeafCapacity: benchLeafCap})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bench := range []struct {
		name string
		req  SearchRequest
	}{
		{"exact", SearchRequest{}},
		{"epsilon=0.05", SearchRequest{Mode: ModeEpsilon, Epsilon: 0.05}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := bench.req
				req.Query = queries.At(i % queries.Count())
				if _, err := ix.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
