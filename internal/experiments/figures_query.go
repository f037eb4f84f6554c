package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Fig07 — "Query answering, vs. leaf size": MESSI-sq and MESSI-mq average
// query time across leaf sizes (U-shaped curve; the paper's minimum is at
// 2K-series leaves at 100M-series scale).
func Fig07(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	data, queries, err := cfg.data(dataset.RandomWalk, cfg.Series)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Figure:  "Figure 7",
		Title:   "Query answering time vs. leaf size (MESSI-sq, MESSI-mq)",
		Columns: []string{"leaf_size", "MESSI_sq_ms", "MESSI_mq_ms"},
	}
	for _, leaf := range []int{50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		opts := cfg.messiOpts()
		opts.LeafCapacity = leaf
		ix, err := core.Build(data, opts)
		if err != nil {
			return nil, err
		}
		tb := &testbed{data: data, queries: queries, messi: ix}
		sq, err := tb.messiQuerySeconds(0, 1)
		if err != nil {
			return nil, err
		}
		mq, err := tb.messiQuerySeconds(0, 0) // default Nq=24
		if err != nil {
			return nil, err
		}
		cfg.logf("fig7 leaf=%d: sq=%.3fms mq=%.3fms", leaf, sq*1e3, mq*1e3)
		t.AddRow(fmt.Sprintf("%d", leaf), ms(sq), ms(mq))
	}
	t.AddNote("paper: U-shaped with minimum at mid-range leaves (2K at 100M-series scale)")
	return t, nil
}

// Fig11 — "Query answering, vs. number of cores": all five algorithms
// across worker counts.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	data, queries, err := cfg.data(dataset.RandomWalk, cfg.Series)
	if err != nil {
		return nil, err
	}
	tb, err := cfg.newTestbed(data, queries)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Figure:  "Figure 11",
		Title:   "Query answering time vs. number of workers (all algorithms)",
		Columns: []string{"workers", "UCR-P_ms", "ParIS_ms", "ParIS-TS_ms", "MESSI-sq_ms", "MESSI-mq_ms"},
	}
	for _, workers := range []int{2, 4, 8, 12, 24, 48} {
		row := []string{fmt.Sprintf("%d", workers)}
		for _, algo := range QueryAlgos {
			avg, err := tb.avgQuerySeconds(algo, workers, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		cfg.logf("fig11 workers=%d done", workers)
		t.AddRow(row...)
	}
	t.AddNote("paper: MESSI-mq fastest (55x over UCR-P, 6.35x over ParIS at 48 threads); single-core hosts flatten the scaling")
	return t, nil
}

// Fig12 — "Query answering, vs. data size": all five algorithms across
// dataset sizes.
func Fig12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Figure:  "Figure 12",
		Title:   "Query answering time vs. data size (all algorithms)",
		Columns: []string{"series", "UCR-P_ms", "ParIS_ms", "ParIS-TS_ms", "MESSI-sq_ms", "MESSI-mq_ms"},
	}
	for _, frac := range []float64{0.5, 1.0, 1.5, 2.0} {
		n := int(float64(cfg.Series) * frac)
		data, queries, err := cfg.data(dataset.RandomWalk, n)
		if err != nil {
			return nil, err
		}
		tb, err := cfg.newTestbed(data, queries)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, algo := range QueryAlgos {
			avg, err := tb.avgQuerySeconds(algo, 0, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		cfg.logf("fig12 n=%d done", n)
		t.AddRow(row...)
	}
	t.AddNote("paper: MESSI up to 61x over UCR-P, 6.35x over ParIS, 7.4x over ParIS-TS across sizes")
	return t, nil
}

// Fig13 — "Query answering with different queue type": the per-phase time
// breakdown of MESSI-sq vs MESSI-mq.
func Fig13(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	data, queries, err := cfg.data(dataset.RandomWalk, cfg.Series)
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(data, cfg.messiOpts())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Figure:  "Figure 13",
		Title:   "Query answering time breakdown (MESSI-sq vs MESSI-mq, per query)",
		Columns: []string{"phase", "MESSI_sq_ms", "MESSI_sq_%", "MESSI_mq_ms", "MESSI_mq_%"},
	}
	measure := func(queues int) (*stats.Breakdown, error) {
		bd := &stats.Breakdown{}
		for qi := 0; qi < queries.Count(); qi++ {
			req := core.Request{Query: queries.At(qi), Breakdown: bd}
			if _, err := messiNearest(ix, req, core.SearchOptions{Queues: queues}); err != nil {
				return nil, err
			}
		}
		return bd, nil
	}
	sq, err := measure(1)
	if err != nil {
		return nil, err
	}
	mq, err := measure(0)
	if err != nil {
		return nil, err
	}
	nq := float64(queries.Count())
	sqTotal := sq.Total().Seconds()
	mqTotal := mq.Total().Seconds()
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		sqS := sq.Get(p).Seconds()
		mqS := mq.Get(p).Seconds()
		t.AddRow(p.String(),
			ms(sqS/nq), fmt.Sprintf("%.1f%%", 100*sqS/sqTotal),
			ms(mqS/nq), fmt.Sprintf("%.1f%%", 100*mqS/mqTotal))
	}
	t.AddRow("TOTAL", ms(sqTotal/nq), "100%", ms(mqTotal/nq), "100%")
	t.AddNote("phase times are summed across workers (the paper's stacked bars); paper: mq cuts PQ insert/remove, distance calculation dominates")
	return t, nil
}

// Fig14 — "Query answering, vs. number of queues" on all three datasets.
func Fig14(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Figure:  "Figure 14",
		Title:   "Query answering time vs. number of priority queues",
		Columns: []string{"queues", "SALD_ms", "Random_ms", "Seismic_ms"},
	}
	kinds := []dataset.Kind{dataset.SALDLike, dataset.RandomWalk, dataset.SeismicLike}
	beds := make([]*testbed, len(kinds))
	for i, kind := range kinds {
		data, queries, err := cfg.data(kind, cfg.Series)
		if err != nil {
			return nil, err
		}
		ix, err := core.Build(data, cfg.messiOpts())
		if err != nil {
			return nil, err
		}
		beds[i] = &testbed{data: data, queries: queries, messi: ix}
	}
	for _, queues := range []int{1, 2, 4, 8, 12, 16, 24, 48} {
		row := []string{fmt.Sprintf("%d", queues)}
		for _, tb := range beds {
			avg, err := tb.messiQuerySeconds(0, queues)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		cfg.logf("fig14 queues=%d done", queues)
		t.AddRow(row...)
	}
	t.AddNote("paper: time falls with queue count, minimum around 24 queues")
	return t, nil
}

// Fig16 — "Query answering for real datasets": all five algorithms on the
// seismic-like and SALD-like stand-ins.
func Fig16(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Figure:  "Figure 16",
		Title:   "Query answering time on real-data stand-ins (all algorithms)",
		Columns: []string{"dataset", "UCR-P_ms", "ParIS_ms", "ParIS-TS_ms", "MESSI-sq_ms", "MESSI-mq_ms"},
	}
	for _, kind := range []dataset.Kind{dataset.SALDLike, dataset.SeismicLike} {
		data, queries, err := cfg.data(kind, cfg.Series)
		if err != nil {
			return nil, err
		}
		tb, err := cfg.newTestbed(data, queries)
		if err != nil {
			return nil, err
		}
		row := []string{string(kind)}
		for _, algo := range QueryAlgos {
			avg, err := tb.avgQuerySeconds(algo, 0, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(avg))
		}
		cfg.logf("fig16 %s done", kind)
		t.AddRow(row...)
	}
	t.AddNote("paper: MESSI 60x/8.4x (SALD) and 80x/11x (Seismic) over UCR-P/ParIS; real data prunes worse than random")
	return t, nil
}

// Fig17 — "Number of distance calculations": lower-bound (a) and real (b)
// distance computation counts, ParIS vs MESSI, per dataset.
func Fig17(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Figure:  "Figure 17",
		Title:   "Distance calculations per query (ParIS vs MESSI, averages)",
		Columns: []string{"dataset", "ParIS_lb", "MESSI_lb", "lb_ratio", "ParIS_real", "MESSI_real"},
	}
	for _, kind := range []dataset.Kind{dataset.RandomWalk, dataset.SeismicLike, dataset.SALDLike} {
		data, queries, err := cfg.data(kind, cfg.Series)
		if err != nil {
			return nil, err
		}
		tb, err := cfg.newTestbed(data, queries)
		if err != nil {
			return nil, err
		}
		parisCtrs := &stats.Counters{}
		messiCtrs := &stats.Counters{}
		for qi := 0; qi < queries.Count(); qi++ {
			if _, err := tb.runQuery(AlgoParis, queries.At(qi), 0, 0, parisCtrs); err != nil {
				return nil, err
			}
			if _, err := tb.runQuery(AlgoMESSIMQ, queries.At(qi), 0, 0, messiCtrs); err != nil {
				return nil, err
			}
		}
		nq := int64(queries.Count())
		p := parisCtrs.Snapshot()
		m := messiCtrs.Snapshot()
		ratio := float64(m.LowerBoundCalcs) / float64(p.LowerBoundCalcs)
		cfg.logf("fig17 %s: lb %d vs %d (%.1f%%)", kind, p.LowerBoundCalcs/nq, m.LowerBoundCalcs/nq, 100*ratio)
		t.AddRow(string(kind),
			fmt.Sprintf("%d", p.LowerBoundCalcs/nq), fmt.Sprintf("%d", m.LowerBoundCalcs/nq),
			fmt.Sprintf("%.1f%%", 100*ratio),
			fmt.Sprintf("%d", p.RealDistCalcs/nq), fmt.Sprintf("%d", m.RealDistCalcs/nq))
	}
	t.AddNote("paper: MESSI performs no more than 15%% of ParIS's lower-bound calculations and fewer real-distance calculations")
	return t, nil
}

// Fig18 — "Query answering performance benefit breakdown": ParIS-SISD →
// ParIS → ParIS-TS → MESSI-mq.
func Fig18(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	data, queries, err := cfg.data(dataset.RandomWalk, cfg.Series)
	if err != nil {
		return nil, err
	}
	tb, err := cfg.newTestbed(data, queries)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Figure:  "Figure 18",
		Title:   "Query answering benefit breakdown (random walk)",
		Columns: []string{"algorithm", "avg_query_ms", "vs_ParIS-SISD"},
	}
	var base float64
	for _, algo := range []Algo{AlgoParisSISD, AlgoParis, AlgoParisTS, AlgoMESSIMQ} {
		avg, err := tb.avgQuerySeconds(algo, 0, 0)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = avg
		}
		cfg.logf("fig18 %s: %.3fms", algo, avg*1e3)
		t.AddRow(string(algo), ms(avg), fmt.Sprintf("%.2fx", base/avg))
	}
	t.AddNote("paper: SIMD makes ParIS 60%% faster than ParIS-SISD; ParIS-TS ~10%% over ParIS; MESSI-mq 83%% over ParIS-TS")
	return t, nil
}

// Fig19 — "MESSI query answering time for DTW distance": serial UCR Suite
// DTW, UCR Suite-P DTW, and MESSI DTW across data sizes (10% warping
// window).
func Fig19(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Figure:  "Figure 19",
		Title:   "DTW query answering time vs. data size (10% warping window)",
		Columns: []string{"series", "UCR_DTW_ms", "UCR-P_DTW_ms", "MESSI_DTW_ms"},
	}
	for _, frac := range []float64{0.5, 1.0, 1.5, 2.0} {
		n := int(float64(cfg.DTWSeries) * frac)
		data, queries, err := cfg.data(dataset.RandomWalk, n)
		if err != nil {
			return nil, err
		}
		ix, err := core.Build(data, cfg.messiOpts())
		if err != nil {
			return nil, err
		}
		tb := &testbed{data: data, queries: queries, messi: ix}
		window := cfg.Length / 10
		serial, err := dtwAvgSeconds(tb, window, 1)
		if err != nil {
			return nil, err
		}
		parallel, err := dtwAvgSeconds(tb, window, core.DefaultSearchWorkers)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for qi := 0; qi < queries.Count(); qi++ {
			req := core.Request{Query: queries.At(qi), DTW: true, Window: window}
			if _, err := messiNearest(ix, req, core.SearchOptions{}); err != nil {
				return nil, err
			}
		}
		messiAvg := time.Since(start).Seconds() / float64(queries.Count())
		cfg.logf("fig19 n=%d: serial=%.1fms parallel=%.1fms messi=%.1fms", n, serial*1e3, parallel*1e3, messiAvg*1e3)
		t.AddRow(fmt.Sprintf("%d", n), ms(serial), ms(parallel), ms(messiAvg))
	}
	t.AddNote("paper: MESSI-DTW up to 34x over UCR Suite-P DTW, 3 orders of magnitude over serial UCR Suite DTW")
	return t, nil
}
