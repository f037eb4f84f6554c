package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	messi "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dtw"
	"repro/internal/isax"
	"repro/internal/paa"
	"repro/internal/pqueue"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/tree"
	"repro/internal/vector"
	"repro/internal/wal"
)

// ingest is what the traced window of a live workload saw of the write
// path. Both fields are zero on static workloads.
type ingest struct {
	appendMS  []float64 // sorted client round trips of POST /v1/series
	diskBytes int64     // WAL + snapshot bytes after a final POST /v1/snapshot
}

// sideSeries is the size of the collection prefix that the persist and
// shard rows use, so that a snapshot write and a second index build stay
// well under a second.
const sideSeries = 100_000

// layerMetrics turns one traced window plus a set of in-process loops into
// the per-layer metrics. Every name is emitted on every workload; a layer
// the workload never enters reports 0. The README's interaction table says
// which end-to-end metric each row should move, and on which workload.
func layerMetrics(sp spec, in *inputs, samples []sample, searchMS []float64, windowS float64, ing ingest,
	tr *tracer, st *serverStats, dir string) ([]metric, error) {

	var out []metric
	add := func(name string, value float64, unit string, n int) {
		out = append(out, metric{name, value, unit, n})
	}

	// --- seen from the client and reported by the server ---------------
	var overheadMS, sumOverElapsed []float64
	phaseMS := map[string]float64{}
	traced := 0
	for i, s := range samples {
		t := s.reply.Trace
		if in.timed[i].append || t == nil {
			continue
		}
		traced++
		rtt := float64(s.latency) / float64(time.Millisecond)
		overheadMS = append(overheadMS, rtt-t.ElapsedSeconds*1e3)
		var sum float64
		for _, p := range t.Phases {
			phaseMS[p.Name] += p.Seconds * 1e3
			sum += p.Seconds
		}
		if t.ElapsedSeconds > 0 {
			sumOverElapsed = append(sumOverElapsed, sum/(2*t.ElapsedSeconds)) // -pool 2
		}
	}
	if traced == 0 {
		return nil, fmt.Errorf("%s: no traced reply carried a trace", sp.name)
	}
	sort.Float64s(overheadMS)
	sort.Float64s(sumOverElapsed)
	n := len(searchMS)
	// On a 1-connection workload the admission gate never queues, so this is
	// HTTP + JSON; on serve-easy it also holds the wait for the gate.
	add("serve.http_overhead_ms", percentile(overheadMS, 0.5), "ms", traced)
	add("client.search_p99_ms", percentile(searchMS, 0.99), "ms", n)
	add("client.search_max_ms", searchMS[n-1], "ms", n)
	admitted := tr.delta("messi_queries_admitted_total")
	waits := tr.delta("messi_admission_wait_seconds_count")
	add("engine.admitted", admitted, "count", 1)
	// The wait histogram has power-of-two buckets, too coarse for a median.
	add("engine.admit_wait_mean_ms", ratio(tr.delta("messi_admission_wait_seconds_sum")*1e3, waits), "ms", int(waits))
	add("engine.queue_depth_max", tr.queueDepthMax, "count", tr.polls)
	for _, p := range []struct{ metric, phase string }{
		{"core.init_ms", "Initialization"},
		{"core.tree_pass_ms", "MESSI tree pass"},
		{"core.pq_insert_ms", "PQ insert node"},
		{"core.pq_remove_ms", "PQ remove node"},
		{"core.dist_calc_ms", "Distance calculation"},
	} {
		add(p.metric, phaseMS[p.phase]/float64(traced), "ms", traced) // mean worker-ms per query
	}
	add("core.trace_sum_over_elapsed", percentile(sumOverElapsed, 0.5), "ratio", len(sumOverElapsed))
	add("tree.leaves", float64(st.Leaves), "count", 1)
	add("tree.max_depth", float64(st.MaxDepth), "count", 1)
	add("tree.max_leaf_fill", float64(st.MaxLeafFill), "count", 1)

	rebuilds := tr.delta("messi_live_rebuilds_total")
	rebuildS := tr.delta("messi_live_rebuild_seconds_sum")
	add("live.rebuilds", rebuilds, "count", 1)
	add("live.rebuild_mean_s", ratio(rebuildS, rebuilds), "s", int(rebuilds))
	add("live.rebuild_overlap_frac", ratio(rebuildS, windowS), "ratio", 1)
	add("live.delta_series_mean", ratio(tr.deltaSum, float64(tr.polls)), "count", tr.polls)
	add("ingest.append_p50_ms", percentile(ing.appendMS, 0.5), "ms", len(ing.appendMS))
	userBytes := float64(in.corpus.base.Count()) * seriesLen * 4
	if in.corpus.appended != nil {
		userBytes += float64(in.corpus.appended.Count()) * seriesLen * 4
	}
	add("ingest.disk_bytes_per_user_byte", float64(ing.diskBytes)/userBytes, "ratio", 1)

	// --- in process, on this workload's own queries --------------------
	base := in.corpus.base
	var queries [][]float32
	for _, o := range in.timed {
		if !o.append && len(queries) < sp.layerQueries {
			queries = append(queries, o.query)
		}
	}
	request := func(q []float32) messi.SearchRequest {
		return messi.SearchRequest{Query: q, DTW: sp.dtw, Window: dtwWindow}
	}

	var timing core.BuildTiming
	if _, err := core.BuildTimed(base, core.Options{}, &timing); err != nil {
		return nil, err
	}
	add("core.build_summarize_s", timing.Summarize.Seconds(), "s", 1)
	add("core.build_tree_s", timing.TreeBuild.Seconds(), "s", 1)
	add("core.build_series_per_s", float64(base.Count())/timing.Total().Seconds(), "1/s", 1)

	// One index worker makes the tree's shape, and one search worker the
	// operation counts, repeat exactly for equal seeds.
	ix, err := messi.BuildFlat(base.Data, seriesLen, &messi.Options{IndexWorkers: 1, SearchWorkers: 1})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var counts messi.QueryCounters
	tracedMS, err := timeQueries(queries, func(q []float32) error {
		req := request(q)
		req.Trace = true
		res, err := ix.Do(ctx, req)
		if err == nil {
			c := res.Trace.Counters
			counts.NodesVisited += c.NodesVisited
			counts.LowerBounds += c.LowerBounds
			counts.RealDistances += c.RealDistances
			counts.LeavesInserted += c.LeavesInserted
			counts.LeavesPruned += c.LeavesPruned
			counts.BSFUpdates += c.BSFUpdates
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	nq := float64(len(queries))
	perQuery := func(name string, total int64) {
		add(name, float64(total)/nq, "count", len(queries))
	}
	perQuery("core.nodes_visited_per_query", counts.NodesVisited)
	perQuery("core.lower_bounds_per_query", counts.LowerBounds)
	perQuery("core.real_distances_per_query", counts.RealDistances)
	perQuery("core.leaves_inserted_per_query", counts.LeavesInserted)
	perQuery("core.leaves_pruned_per_query", counts.LeavesPruned)
	perQuery("core.bsf_updates_per_query", counts.BSFUpdates)
	add("core.pruning_ratio", 1-float64(counts.RealDistances)/nq/float64(base.Count()), "ratio", len(queries))
	var dtwDistances int64
	if sp.dtw {
		dtwDistances = counts.RealDistances
	}
	perQuery("dtw.distances_per_query", dtwDistances)

	untracedMS, err := timeQueries(queries, func(q []float32) error {
		_, err := ix.Do(ctx, request(q))
		return err
	})
	if err != nil {
		return nil, err
	}
	add("trace.overhead_frac", percentile(tracedMS, 0.5)/percentile(untracedMS, 0.5)-1, "ratio", len(queries))

	// The engine at the server's parallelism, over the same index.
	eng := ix.NewEngine(&messi.EngineOptions{PoolWorkers: 2})
	defer eng.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	engineMS, err := timeQueries(queries, func(q []float32) error {
		_, err := eng.Do(ctx, request(q))
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	add("engine.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/nq, "B", len(queries))
	for _, v := range []struct {
		name string
		req  func(q []float32) messi.SearchRequest
	}{
		{"core.knn10_p50_ms", func(q []float32) messi.SearchRequest { return messi.SearchRequest{Query: q, K: 10} }},
		{"core.approx_p50_ms", func(q []float32) messi.SearchRequest { return messi.SearchRequest{Query: q, Mode: messi.ModeApprox} }},
		{"core.eps05_p50_ms", func(q []float32) messi.SearchRequest {
			return messi.SearchRequest{Query: q, Mode: messi.ModeEpsilon, Epsilon: 0.05}
		}},
	} {
		ms, err := timeQueries(queries, func(q []float32) error {
			_, err := eng.Do(ctx, v.req(q))
			return err
		})
		if err != nil {
			return nil, err
		}
		add(v.name, percentile(ms, 0.5), "ms", len(queries))
	}

	// Fixed per-query costs, measured against the cheapest query the engine
	// serves (approximate: one leaf), where they are the largest share.
	cheap := make([][]float32, 0, 256)
	for len(cheap) < cap(cheap) {
		cheap = append(cheap, queries[len(cheap)%len(queries)])
	}
	approx := func(do func(context.Context, messi.SearchRequest) (messi.Result, error)) (float64, error) {
		ms, err := timeQueries(cheap, func(q []float32) error {
			_, err := do(ctx, messi.SearchRequest{Query: q, Mode: messi.ModeApprox})
			return err
		})
		return percentile(ms, 0.5), err
	}
	one := ix.NewEngine(&messi.EngineOptions{PoolWorkers: 1})
	defer one.Close()
	metered := ix.NewEngine(&messi.EngineOptions{PoolWorkers: 1, Metrics: messi.NewMetrics()})
	defer metered.Close()
	indexMS, err := approx(ix.Do)
	if err != nil {
		return nil, err
	}
	oneMS, err := approx(one.Do)
	if err != nil {
		return nil, err
	}
	meteredMS, err := approx(metered.Do)
	if err != nil {
		return nil, err
	}
	add("engine.do_overhead_us", (oneMS-indexMS)*1e3, "us", len(cheap))
	add("metrics.registry_overhead_frac", meteredMS/oneMS-1, "ratio", len(cheap))

	// Brute force under the workload's distance: the "when not to index"
	// crossover. A DTW scan takes seconds, so it gets one query.
	brute := queries[:min(len(queries), 3)]
	if sp.dtw {
		brute = queries[:1]
	}
	bruteMS, err := timeQueries(brute, func(q []float32) error {
		var err error
		if sp.dtw {
			_, err = scan.SearchDTW(base, q, in.corpus.window, 2, nil)
		} else {
			_, err = scan.Search1NN(base, q, 2, nil)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	add("scan.bruteforce_ms_per_query", percentile(bruteMS, 0.5), "ms", len(brute))
	add("scan.speedup", percentile(bruteMS, 0.5)/percentile(engineMS, 0.5), "ratio", len(brute))

	// --- in process, on a prefix of the data ----------------------------
	side, err := series.NewCollection(base.Data[:min(sideSeries, base.Count())*seriesLen], seriesLen)
	if err != nil {
		return nil, err
	}
	var shardP50 [2]float64
	for i, shards := range []int{1, 2} {
		sx, err := messi.BuildFlat(side.Data, seriesLen, &messi.Options{Shards: shards, SearchWorkers: 2})
		if err != nil {
			return nil, err
		}
		ms, err := timeQueries(queries, func(q []float32) error {
			_, err := sx.Do(ctx, request(q))
			return err
		})
		if err != nil {
			return nil, err
		}
		shardP50[i] = percentile(ms, 0.5)
		if shards == 1 {
			if err := persistMetrics(sx, side, filepath.Join(dir, "side.snap"), add); err != nil {
				return nil, err
			}
		}
	}
	add("shard.s2_over_s1_p50", shardP50[1]/shardP50[0], "ratio", len(queries))

	if err := kernelMetrics(base, queries[0], filepath.Join(dir, "wal-loop"), add); err != nil {
		return nil, err
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeQueries runs fn once per query and returns the sorted latencies in
// milliseconds.
func timeQueries(queries [][]float32, fn func(q []float32) error) ([]float64, error) {
	ms := make([]float64, 0, len(queries))
	for _, q := range queries {
		t0 := time.Now()
		if err := fn(q); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	return ms, nil
}

// persistMetrics saves and reloads an index over col.
func persistMetrics(ix *messi.Index, col *series.Collection, path string, add func(string, float64, string, int)) error {
	t0 := time.Now()
	if err := ix.Save(path); err != nil {
		return err
	}
	saveS := time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := messi.Load(path); err != nil {
		return err
	}
	add("persist.write_mbps", float64(fi.Size())/1e6/saveS, "MB/s", 1)
	add("persist.load_s", time.Since(t0).Seconds(), "s", 1)
	add("persist.bytes_per_user_byte", float64(fi.Size())/float64(col.Bytes()), "ratio", 1)
	return nil
}

// sink keeps the kernel loops' results alive so the compiler cannot drop
// the calls.
var sink float64

// bestNS calls loop, which performs units units of work, five times and
// returns the fastest run in nanoseconds per unit: the minimum is the run
// least disturbed by everything else on the box.
func bestNS(units int, loop func()) float64 {
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		loop()
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return best
}

// kernelMetrics times each module's public kernels in isolation, on the
// workload's data and first query: the numbers an optimisation of that
// module moves first, and the hardware ceiling to read them against.
func kernelMetrics(data *series.Collection, query []float32, walDir string, add func(string, float64, string, int)) error {
	// vector: real-distance kernels over 64 MB of series (less on a smaller
	// collection), against a plain streaming read of the same memory as the
	// ceiling.
	wide := min(data.Count(), 125_000)
	points := wide * seriesLen
	ns := bestNS(points, func() {
		for i := 0; i < wide; i++ {
			sink += vector.SquaredEuclidean(data.At(i), query)
		}
	})
	add("vector.sqeuclid_ns_per_point", ns, "ns", points)
	add("vector.sqeuclid_gbps", 4/ns, "GB/s", points)
	limit := vector.SquaredEuclidean(data.At(0), query) / 2
	add("vector.sqeuclid_ea_ns_per_point", bestNS(points, func() {
		for i := 0; i < wide; i++ {
			sink += vector.SquaredEuclideanEarlyAbandon(data.At(i), query, limit)
		}
	}), "ns", points)
	upper, lower := dtw.Envelope(query, dtw.WindowSize(seriesLen, dtwWindow))
	add("vector.envelope_dist_ns_per_point", bestNS(points, func() {
		for i := 0; i < wide; i++ {
			sink += vector.SquaredEnvelopeDistance(data.At(i), lower, upper)
		}
	}), "ns", points)
	stream := data.Data[:points]
	add("hw.memread_gbps", 4/bestNS(points, func() {
		var s0, s1, s2, s3 float32
		for i := 0; i+4 <= len(stream); i += 4 {
			s0 += stream[i]
			s1 += stream[i+1]
			s2 += stream[i+2]
			s3 += stream[i+3]
		}
		sink += float64(s0 + s1 + s2 + s3)
	}), "GB/s", points)

	rows := min(data.Count(), 20_000) // enough for the loops below
	// dtw
	r := dtw.WindowSize(seriesLen, dtwWindow)
	add("dtw.envelope_ns", bestNS(2000, func() {
		for i := 0; i < 2000; i++ {
			u, _ := dtw.Envelope(data.At(i%rows), r)
			sink += float64(u[0])
		}
	}), "ns", 2000)
	add("dtw.lbkeogh_ns", bestNS(rows, func() {
		for i := 0; i < rows; i++ {
			sink += dtw.LBKeogh(data.At(i), lower, upper, math.Inf(1))
		}
	}), "ns", rows)
	add("dtw.distance_ns", bestNS(2000, func() {
		for i := 0; i < 2000; i++ {
			sink += dtw.Distance(query, data.At(i%rows), r, math.Inf(1))
		}
	}), "ns", 2000)

	// paa, isax, tree: summarise, bound, insert.
	opts := core.FillDefaults(core.Options{})
	schema, err := isax.NewSchema(seriesLen, opts.Segments, opts.CardBits)
	if err != nil {
		return err
	}
	w := schema.Segments
	paas := make([]float64, rows*w)
	add("paa.transform_ns_per_series", bestNS(rows, func() {
		for i := 0; i < rows; i++ {
			paa.Transform(data.At(i), w, paas[i*w:(i+1)*w])
		}
	}), "ns", rows)
	words := make([]uint8, rows*w)
	for i := 0; i < rows; i++ {
		schema.WordFromPAA(paas[i*w:(i+1)*w], words[i*w:(i+1)*w])
	}
	qpaa := paa.Transform(query, w, nil)
	uMax, lMin := paa.SegmentMax(upper, w, nil), paa.SegmentMin(lower, w, nil)
	tab := schema.NewDistTable()
	add("isax.disttable_build_ns", bestNS(2000, func() {
		for i := 0; i < 2000; i++ {
			tab.BuildPAA(qpaa)
		}
	}), "ns", 2000)
	add("isax.envelope_build_ns", bestNS(2000, func() {
		for i := 0; i < 2000; i++ {
			tab.BuildEnvelope(uMax, lMin)
		}
	}), "ns", 2000)
	tab.BuildPAA(qpaa)
	add("isax.mindist_ns_per_word", bestNS(rows, func() {
		for i := 0; i < rows; i++ {
			sink += tab.MinDistWord(words[i*w : (i+1)*w])
		}
	}), "ns", rows)
	add("tree.insert_ns", bestNS(rows, func() {
		t, err := tree.New(schema, opts.LeafCapacity)
		if err != nil {
			panic(err) // the schema built above is valid
		}
		for i := 0; i < rows; i++ {
			word := words[i*w : (i+1)*w]
			t.Insert(t.EnsureRoot(schema.RootIndex(word)), word, int32(i))
		}
	}), "ns", rows)

	// pqueue: two goroutines pushing into and popping from one shared set,
	// as two search workers do.
	const pushes = 100_000
	add("pqueue.pushpop_ns", bestNS(2*pushes, func() {
		set := pqueue.NewSet[int](opts.QueueCount, 1024)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cursor := g
				for i := 0; i < pushes; i++ {
					set.PushRoundRobin(&cursor, float64((i*2654435761)%1000003), i)
				}
				for q := g; q < set.Size(); q += 2 {
					for {
						if _, ok := set.Queue(q).PopMin(); !ok {
							break
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}), "ns", 2*pushes)

	// delta: the live index's append buffer and its brute-force scan.
	const deltaRows = 10_000
	batch := make([][]float32, 256)
	for i := range batch {
		batch[i] = data.At(i)
	}
	var buf *delta.Buffer
	add("delta.append_ns_per_series", bestNS(deltaRows/len(batch)*len(batch), func() {
		buf = delta.New(seriesLen, 0)
		for i := 0; i < deltaRows/len(batch); i++ {
			if _, err := buf.AppendBatch(batch); err != nil {
				panic(err) // rows of the right length always append
			}
		}
	}), "ns", deltaRows)
	tenK, err := series.NewCollection(data.Data[:min(deltaRows, data.Count())*seriesLen], seriesLen)
	if err != nil {
		return err
	}
	add("delta.scan_ms_per_10k", bestNS(1, func() {
		m, err := scan.Search1NNBounded(tenK, query, 1, math.Inf(1), nil)
		if err != nil {
			panic(err) // the query has the collection's length
		}
		sink += m.Dist
	})/1e6, "ms", 5)

	// wal: journal 256-series batches with an fsync each, as the server
	// does under -wal-sync always.
	log, err := wal.Open(walDir, seriesLen, &wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	const appends = 24
	appendMS := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if err := log.Append(int64(i*len(batch)), batch); err != nil {
			log.Close()
			return err
		}
		appendMS = append(appendMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if err := log.Close(); err != nil {
		return err
	}
	sort.Float64s(appendMS)
	add("wal.append_p50_ms", percentile(appendMS, 0.5), "ms", appends)
	onDisk, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	add("wal.bytes_per_user_byte", float64(onDisk)/float64(appends*len(batch)*seriesLen*4), "ratio", 1)
	return nil
}
