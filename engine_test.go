package messi

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEngineMatchesSearch: the gated engine must agree exactly with the
// one-shot Search/SearchKNN on the same inputs, including under the
// Normalize option (the engine normalizes queries the same way).
func TestEngineMatchesSearch(t *testing.T) {
	for _, normalize := range []bool{false, true} {
		data := RandomWalk(3000, 64, 3)
		ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, Normalize: normalize})
		if err != nil {
			t.Fatal(err)
		}
		eng := ix.NewEngine(&EngineOptions{PoolWorkers: 8})
		queries := RandomWalk(10, 64, 303)
		for i := 0; i < 10; i++ {
			q := queries[i*64 : (i+1)*64]
			want, err := nn1(ix, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nn1(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("normalize=%v query %d: engine %+v, search %+v", normalize, i, got, want)
			}

			wantK, err := knn(ix, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := knn(eng, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantK {
				if gotK[j] != wantK[j] {
					t.Fatalf("normalize=%v query %d k-NN %d: engine %+v, search %+v", normalize, i, j, gotK[j], wantK[j])
				}
			}
		}
		eng.Close()
	}
}

// TestEngineConcurrentQueriers: ≥8 goroutines share one engine; every
// answer must match the single-query path (run under -race in CI).
func TestEngineConcurrentQueriers(t *testing.T) {
	data := RandomWalk(2000, 64, 9)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&EngineOptions{PoolWorkers: 4})
	defer eng.Close()

	flat := RandomWalk(8, 64, 909)
	want := make([]Match, 8)
	queries := make([][]float32, 8)
	for i := range queries {
		queries[i] = flat[i*64 : (i+1)*64]
		m, err := nn1(ix, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	const queriers = 8
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % len(queries)
				got, err := nn1(eng, queries[i])
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				if got != want[i] {
					t.Errorf("querier %d query %d: got %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineShardsGauge: messi_engine_shards follows the generation a
// live index currently publishes — the index feeds it, the engine holds
// none — whether NewEngine built it around an Index or it grew from
// appends.
func TestEngineShardsGauge(t *testing.T) {
	t.Run("NewEngine", func(t *testing.T) {
		ix, err := BuildFlat(RandomWalk(200, 64, 31), 64, &Options{LeafCapacity: 32, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		reg := NewMetrics()
		eng := ix.NewEngine(&EngineOptions{PoolWorkers: 2, Metrics: reg})
		defer eng.Close()
		if got := sample(t, reg, "messi_engine_shards"); got != "4" {
			t.Fatalf("messi_engine_shards = %s, want 4", got)
		}
	})
	t.Run("live", func(t *testing.T) {
		const length = 32
		one := NewMetrics()
		smallLive(t, length, walk(40, length, 41), smallOpts(1), &LiveOptions{RebuildThreshold: 1 << 30, Engine: EngineOptions{Metrics: one}})
		if got := sample(t, one, "messi_engine_shards"); got != "1" {
			t.Errorf("unsharded generation: messi_engine_shards = %s, want 1", got)
		}

		four := NewMetrics()
		ix4 := smallLive(t, length, nil, smallOpts(4), &LiveOptions{RebuildThreshold: 1 << 30, Engine: EngineOptions{Metrics: four}})
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
	})
}

// sample reads one unlabeled series from a registry's text exposition.
func sample(t *testing.T, r *Metrics, name string) string {
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

// TestNewEngineInheritsIndex: the live index NewEngine returns takes its
// worker and queue defaults from the index's options, holds the index as its
// one generation with an empty delta, and has nothing to persist on Close.
func TestNewEngineInheritsIndex(t *testing.T) {
	ix, err := BuildFlat(RandomWalk(300, 64, 37), 64,
		&Options{LeafCapacity: 32, SearchWorkers: 3, QueueCount: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	if o := eng.EngineOptions(); o.PoolWorkers != 3 || o.Queues != 5 {
		t.Errorf("defaults %+v, want PoolWorkers=3 and Queues=5 from the index", o)
	}
	want := LiveStats{Series: 300, BaseSeries: 300, Generation: 1, Shards: 2, Index: ix.Stats(), PerShard: ix.ShardStats()}
	if got := eng.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestCountsIndependentOfWorkers: a query's counts are a property of the
// query, not of how many workers and queues split it. A member query's
// approximate search finds the member at distance 0, so every root child
// is visited once and pruned — with any number of workers, of which the
// query reports it ran on all (Workers). An OOD query scans: every
// series is measured once, beside each shard's approximate leaf, and each
// shard counts one scan plan.
func TestCountsIndependentOfWorkers(t *testing.T) {
	ctx := context.Background()
	data := RandomWalk(3000, 64, 23)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	member, err := ix.Series(42)
	if err != nil {
		t.Fatal(err)
	}
	var first *QueryCounters
	for _, workers := range []int{1, 2, 4, 8} {
		for _, queues := range []int{1, 2, 4} {
			eng := ix.NewEngine(&EngineOptions{PoolWorkers: workers, Queues: queues})
			res, err := eng.Do(ctx, SearchRequest{Query: member, Counters: true})
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			if best := res.Best(); best.Position != 42 || best.Distance != 0 {
				t.Fatalf("member query answered %+v", best)
			}
			c := *res.Counters
			// The width is the one count that is the workers' own: a lone
			// tree-plan query runs on every worker, yielding none.
			if c.Workers != int64(workers) || c.Yields != 0 {
				t.Fatalf("workers=%d queues=%d: %d workers, %d yields, want %d and 0",
					workers, queues, c.Workers, c.Yields, workers)
			}
			c.Workers = 0
			if c.NodesVisited != int64(ix.Stats().RootChildren) {
				t.Fatalf("workers=%d queues=%d: %d nodes visited, want the %d root children",
					workers, queues, c.NodesVisited, ix.Stats().RootChildren)
			}
			if first == nil {
				first = &c
			} else if c != *first {
				t.Fatalf("workers=%d queues=%d: counts %+v, one worker and one queue counted %+v",
					workers, queues, c, *first)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	ood := make([]float32, 64)
	for i := range ood {
		ood[i] = float32(rng.NormFloat64())
	}
	for _, shards := range []int{1, 3} {
		sx, err := BuildFlat(data, 64, &Options{LeafCapacity: 64, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// An approximate answer is exactly the approximate leaves' work.
		approx, err := sx.Do(ctx, SearchRequest{Query: ood, Mode: ModeApprox, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := sx.Do(ctx, SearchRequest{Query: ood, Counters: true})
		if err != nil {
			t.Fatal(err)
		}
		c := exact.Counters
		if c.ScanPlans != int64(shards) {
			t.Fatalf("shards=%d: %d scan plans, want one per shard", shards, c.ScanPlans)
		}
		if want := int64(sx.Len()) + approx.Counters.RealDistances; c.RealDistances != want {
			t.Fatalf("shards=%d: %d real distances, want %d series plus %d in the approximate leaves",
				shards, c.RealDistances, sx.Len(), approx.Counters.RealDistances)
		}
	}
}

// TestServedIndexHoldsNoGoroutines: a served index starts its query workers
// per query, so neither Index.NewEngine nor a live index holds a goroutine
// between queries, and every goroutine a query starts is gone once the
// queries return — over the tree plan, the scan plan, k-NN, DTW and a
// deadline, on a static generation and on one with a delta beside it.
func TestServedIndexHoldsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the indexes existed", when, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	data := RandomWalk(2000, 64, 61)
	ix, err := BuildFlat(data, 64, &Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(&EngineOptions{PoolWorkers: 8})
	lix, err := BuildLiveFlat(data, 64, &Options{LeafCapacity: 64, SearchWorkers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lix.Append(RandomWalk(1, 64, 63)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	ood := make([]float32, 64)
	for i := range ood {
		ood[i] = float32(rng.NormFloat64())
	}
	settle("after building the indexes")

	member, err := ix.Series(42)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []SearchRequest{
		{Query: member, Counters: true},
		{Query: ood, Counters: true},
		{Query: member, K: 5},
		{Query: member, DTW: true, Window: 0.1},
		{Query: ood, Mode: ModeDeadline, Deadline: time.Millisecond},
		{Query: ood, Mode: ModeApprox},
		{Query: member, Mode: ModeEpsilon, Epsilon: 0.5},
		{Query: ood, DTW: true, Window: 0.05},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(reqs))
	for _, x := range []*LiveIndex{eng, lix} {
		for i, req := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := x.Do(context.Background(), req)
				switch {
				case err != nil:
					errs <- err
				case i == 0 && res.Counters.ScanPlans != 0:
					t.Errorf("member query scanned: %+v", *res.Counters)
				case i == 1 && res.Counters.ScanPlans == 0:
					t.Errorf("out-of-distribution query took the tree plan: %+v", *res.Counters)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	settle("after the queries returned")

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lix.Close(); err != nil {
		t.Fatal(err)
	}
}
