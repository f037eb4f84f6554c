package messi

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEngineMatchesSearch: the pooled engine must agree exactly with the
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
	eng := ix.NewEngine(&EngineOptions{PoolWorkers: 6, QueryWorkers: 3, MaxConcurrent: 4})
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

// TestEngineShardsGauge: the live index NewEngine returns publishes the
// built index as its generation, which feeds messi_engine_shards.
func TestEngineShardsGauge(t *testing.T) {
	ix, err := BuildFlat(RandomWalk(200, 64, 31), 64, &Options{LeafCapacity: 32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	eng := ix.NewEngine(&EngineOptions{PoolWorkers: 2, Metrics: reg})
	defer eng.Close()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nmessi_engine_shards 4\n") {
		t.Fatalf("messi_engine_shards does not read 4:\n%s", sb.String())
	}
}

// TestNewEngineInheritsIndex: the live index NewEngine returns takes its
// pool and queue defaults from the index's options, holds the index as its
// one generation with an empty delta, and has nothing to persist on Close.
func TestNewEngineInheritsIndex(t *testing.T) {
	ix, err := BuildFlat(RandomWalk(300, 64, 37), 64,
		&Options{LeafCapacity: 32, SearchWorkers: 3, QueueCount: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := ix.NewEngine(nil)
	if o := eng.EngineOptions(); o.PoolWorkers != 3 || o.QueryWorkers != 3 || o.Queues != 5 {
		t.Errorf("defaults %+v, want PoolWorkers=QueryWorkers=3 and Queues=5 from the index", o)
	}
	want := LiveStats{Series: 300, BaseSeries: 300, Generation: 1, Shards: 2, Index: ix.Stats(), PerShard: ix.ShardStats()}
	if got := eng.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
