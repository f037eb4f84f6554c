package scan

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/series"
	"repro/internal/stats"
	"repro/internal/vector"
)

func genData(t testing.TB, count, length int) *series.Collection {
	t.Helper()
	c, err := dataset.Generate(dataset.RandomWalk, count, length, 21)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func brute1NN(data *series.Collection, query []float32) core.Match {
	best := core.Match{Position: -1, Dist: math.Inf(1)}
	for i := 0; i < data.Count(); i++ {
		d := vector.SquaredEuclidean(data.At(i), query)
		if d < best.Dist {
			best = core.Match{Position: i, Dist: d}
		}
	}
	return best
}

// bruteKNN is the oracle: all distances, fully sorted.
func bruteKNN(data *series.Collection, query []float32, k int) []core.Match {
	all := make([]core.Match, data.Count())
	for i := 0; i < data.Count(); i++ {
		all[i] = core.Match{Position: i, Dist: vector.SquaredEuclidean(data.At(i), query)}
	}
	for i := 1; i < len(all); i++ { // insertion sort keeps the test dependency-free
		for j := i; j > 0 && (all[j].Dist < all[j-1].Dist ||
			(all[j].Dist == all[j-1].Dist && all[j].Position < all[j-1].Position)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestSearchKNNMatchesBruteForce(t *testing.T) {
	data := genData(t, 600, 64)
	queries, _ := dataset.Queries(dataset.RandomWalk, 8, 64, 33)
	for _, workers := range []int{1, 3, 8} {
		for _, k := range []int{1, 5, 700} { // 700 > collection: returns everything
			for qi := 0; qi < queries.Count(); qi++ {
				q := queries.At(qi)
				want := bruteKNN(data, q, k)
				got, err := SearchKNN(data, q, k, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d k=%d query %d: %d matches, want %d", workers, k, qi, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
						t.Fatalf("workers=%d k=%d query %d rank %d: dist %v, want %v",
							workers, k, qi, i, got[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
	if _, err := SearchKNN(data, queries.At(0), 0, 1, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestSearch1NNMatchesBruteForce(t *testing.T) {
	data := genData(t, 1200, 64)
	queries, _ := dataset.Queries(dataset.RandomWalk, 15, 64, 31)
	for _, workers := range []int{1, 3, 8} {
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			want := brute1NN(data, q)
			got, err := Search1NN(data, q, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
				t.Fatalf("workers=%d query %d: %v want %v", workers, qi, got.Dist, want.Dist)
			}
		}
	}
}

func TestSearch1NNCountsEverySeries(t *testing.T) {
	data := genData(t, 500, 64)
	var tally stats.Tally
	if _, err := Search1NN(data, data.At(0), 4, &tally); err != nil {
		t.Fatal(err)
	}
	// UCR Suite-P performs no pruning: one real-distance computation per
	// series (early abandoning shortens them but every series is touched).
	if got := tally.RealDistCalcs; got != 500 {
		t.Errorf("real dist calcs = %d, want 500", got)
	}
}

func TestSearch1NNValidation(t *testing.T) {
	data := genData(t, 10, 64)
	if _, err := Search1NN(data, make([]float32, 32), 2, nil); err == nil {
		t.Error("wrong-length query accepted")
	}
	if _, err := Search1NN(nil, make([]float32, 64), 2, nil); err == nil {
		t.Error("nil collection accepted")
	}
	empty, _ := series.NewEmptyCollection(0, 64)
	if _, err := Search1NN(empty, make([]float32, 64), 2, nil); err == nil {
		t.Error("empty collection accepted")
	}
}

func TestSearch1NNMoreWorkersThanSeries(t *testing.T) {
	data := genData(t, 3, 64)
	got, err := Search1NN(data, data.At(1), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Position != 1 || got.Dist != 0 {
		t.Errorf("got %+v, want self-match", got)
	}
}

func bruteDTW(data *series.Collection, query []float32, window int) core.Match {
	best := core.Match{Position: -1, Dist: math.Inf(1)}
	for i := 0; i < data.Count(); i++ {
		d := dtw.Distance(query, data.At(i), window, best.Dist)
		if d < best.Dist {
			best = core.Match{Position: i, Dist: d}
		}
	}
	return best
}

func TestSearchDTWMatchesBruteForce(t *testing.T) {
	data := genData(t, 400, 64)
	queries, _ := dataset.Queries(dataset.RandomWalk, 6, 64, 33)
	window := dtw.WindowSize(64, 0.1)
	for _, workers := range []int{1, 4} {
		for qi := 0; qi < queries.Count(); qi++ {
			q := queries.At(qi)
			want := bruteDTW(data, q, window)
			got, err := SearchDTW(data, q, window, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6*(1+want.Dist) {
				t.Fatalf("workers=%d query %d: %v want %v", workers, qi, got.Dist, want.Dist)
			}
		}
	}
}

func TestSearchDTWLBKeoghPrunes(t *testing.T) {
	data := genData(t, 600, 64)
	var snap stats.Tally
	window := dtw.WindowSize(64, 0.1)
	if _, err := SearchDTW(data, data.At(7), window, 1, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.LowerBoundCalcs != 600 {
		t.Errorf("LB calcs = %d, want 600 (one LB_Keogh per series)", snap.LowerBoundCalcs)
	}
	if snap.RealDistCalcs >= 600 {
		t.Errorf("full DTW ran on every series (%d); LB_Keogh pruned nothing", snap.RealDistCalcs)
	}
}

func TestSearchDTWValidation(t *testing.T) {
	data := genData(t, 10, 64)
	if _, err := SearchDTW(data, data.At(0), -1, 1, nil); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := SearchDTW(data, data.At(0), 64, 1, nil); err == nil {
		t.Error("window >= length accepted")
	}
	if _, err := SearchDTW(data, make([]float32, 16), 4, 1, nil); err == nil {
		t.Error("wrong-length query accepted")
	}
}
