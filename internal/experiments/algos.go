package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/paris"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/shard"
	"repro/internal/stats"
)

// buildReps is how many times each build measurement is repeated; the
// fastest run is kept. Index construction allocates tens of megabytes, so
// a single run can be charged an arbitrary slice of GC work left over from
// the previous measurement; min-of-reps with a forced collection between
// runs removes that noise (the paper averages 10 runs on a quiet server).
const buildReps = 3

// minBuildMESSI returns the fastest of buildReps timed MESSI builds.
func minBuildMESSI(data *series.Collection, opts core.Options) (core.BuildTiming, error) {
	var best core.BuildTiming
	for r := 0; r < buildReps; r++ {
		runtime.GC()
		var bt core.BuildTiming
		if _, err := core.BuildTimed(data, opts, &bt); err != nil {
			return best, err
		}
		if r == 0 || bt.Total() < best.Total() {
			best = bt
		}
	}
	return best, nil
}

// minBuildParis returns the fastest of buildReps timed ParIS builds.
func minBuildParis(data *series.Collection, opts paris.Options) (paris.BuildTiming, error) {
	var best paris.BuildTiming
	for r := 0; r < buildReps; r++ {
		runtime.GC()
		var bt paris.BuildTiming
		if _, err := paris.BuildTimed(data, opts, &bt); err != nil {
			return best, err
		}
		if r == 0 || bt.Total() < best.Total() {
			best = bt
		}
	}
	return best, nil
}

// Algo names one of the query-answering algorithms compared in Figures
// 11, 12, 16 and 18.
type Algo string

// The competitors of the evaluation.
const (
	AlgoUCRP      Algo = "UCR Suite-P"
	AlgoParis     Algo = "ParIS"
	AlgoParisSISD Algo = "ParIS-SISD"
	AlgoParisTS   Algo = "ParIS-TS"
	AlgoMESSISQ   Algo = "MESSI-sq"
	AlgoMESSIMQ   Algo = "MESSI-mq"
)

// QueryAlgos is the default comparison set of Figures 11/12/16.
var QueryAlgos = []Algo{AlgoUCRP, AlgoParis, AlgoParisTS, AlgoMESSISQ, AlgoMESSIMQ}

// testbed bundles the per-dataset state shared across figure points: the
// raw data, the query workload, and both indexes.
type testbed struct {
	data    *series.Collection
	queries *series.Collection
	messi   *core.Index
	paris   *paris.Index
}

// newTestbed builds both indexes over a dataset (indexes are built with
// the same leaf capacity so query comparisons are apples-to-apples).
func (c Config) newTestbed(data, queries *series.Collection) (*testbed, error) {
	messiIx, err := core.Build(data, c.messiOpts())
	if err != nil {
		return nil, err
	}
	parisIx, err := paris.Build(data, c.parisOpts())
	if err != nil {
		return nil, err
	}
	return &testbed{data: data, queries: queries, messi: messiIx, paris: parisIx}, nil
}

// runQuery answers one query with the chosen algorithm and worker/queue
// configuration, returning the squared distance (for cross-checks).
func (tb *testbed) runQuery(algo Algo, q []float32, workers, queues int, ctrs *stats.Counters) (float64, error) {
	switch algo {
	case AlgoUCRP:
		m, err := scan.Search1NN(tb.data, q, workers, ctrs)
		return m.Dist, err
	case AlgoParis:
		m, err := tb.paris.Search(q, paris.SearchOptions{Workers: workers, Counters: ctrs})
		return m.Dist, err
	case AlgoParisSISD:
		m, err := tb.paris.Search(q, paris.SearchOptions{Workers: workers, Kernel: paris.KernelSISD, Counters: ctrs})
		return m.Dist, err
	case AlgoParisTS:
		m, err := tb.paris.SearchTS(q, paris.SearchOptions{Workers: workers, Counters: ctrs})
		return m.Dist, err
	case AlgoMESSISQ:
		return messiNearest(tb.messi, core.Request{Query: q, Counters: ctrs}, core.SearchOptions{Workers: workers, Queues: 1})
	case AlgoMESSIMQ:
		return messiNearest(tb.messi, core.Request{Query: q, Counters: ctrs}, core.SearchOptions{Workers: workers})
	default:
		return 0, fmt.Errorf("experiments: unknown algorithm %q", algo)
	}
}

// messiNearest answers one exact 1-NN request on a MESSI index in the
// paper's per-query spawn mode and returns the squared distance.
func messiNearest(ix *core.Index, req core.Request, opt core.SearchOptions) (float64, error) {
	res, err := shard.Wrap(ix).Do(req, opt)
	if err != nil {
		return 0, err
	}
	return res.Matches[0].Dist, nil
}

// avgQuerySeconds runs the whole query workload sequentially (the paper
// runs queries "in a sequential fashion, one after the other, in order to
// simulate an exploratory analysis scenario") and returns the mean
// wall-clock seconds per query.
func (tb *testbed) avgQuerySeconds(algo Algo, workers, queues int) (float64, error) {
	start := time.Now()
	for qi := 0; qi < tb.queries.Count(); qi++ {
		if _, err := tb.runQuery(algo, tb.queries.At(qi), workers, queues, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(tb.queries.Count()), nil
}

// dtwAvgSeconds measures the UCR Suite DTW scan (serial when workers == 1,
// UCR Suite-P DTW otherwise) over the whole query workload.
func dtwAvgSeconds(tb *testbed, window, workers int) (float64, error) {
	start := time.Now()
	for qi := 0; qi < tb.queries.Count(); qi++ {
		if _, err := scan.SearchDTW(tb.data, tb.queries.At(qi), window, workers, nil); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(tb.queries.Count()), nil
}

// messiQuerySeconds measures MESSI with an explicit queue count (for the
// Figure 7/14 sweeps).
func (tb *testbed) messiQuerySeconds(workers, queues int) (float64, error) {
	start := time.Now()
	for qi := 0; qi < tb.queries.Count(); qi++ {
		opt := core.SearchOptions{Workers: workers, Queues: queues}
		if _, err := messiNearest(tb.messi, core.Request{Query: tb.queries.At(qi)}, opt); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(tb.queries.Count()), nil
}
