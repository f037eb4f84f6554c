package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/dtw"
	"repro/internal/series"
	"repro/internal/workload"
)

const (
	seriesLen   = 128
	dtwWindow   = 0.1
	warmupShare = 0.05 // warm-up ops as a share of the timed op count
	// pool pins the server's search parallelism, whatever the box has.
	pool = "2"
)

// spec is one workload's frozen definition. Sizes are counts, not
// durations: a run executes round(perSecond × --seconds) query ops of a
// seeded list, so two runs with equal flags do identical work. README.md
// says why each workload exists and how the sizes were calibrated.
type spec struct {
	name   string
	series int           // series in the data file the server boots from
	tier   workload.Tier // query hardness tier
	snrDB  float64       // noise tier: signal-to-noise ratio of the queries
	dtw    bool          // POST /v1/dtw with window 0.1 instead of POST /v1/search
	conns  int           // closed-loop client connections
	// perSecond is the frozen number of query ops per second of requested
	// window, calibrated once on a 2-core box so the window takes about
	// --seconds there.
	perSecond float64
	checks    int // query ops per run compared with a brute-force scan
	// layerQueries is how many of the timed queries the traced run repeats
	// in process, sized so those loops take a second or two per pass.
	layerQueries int

	// ingest-mixed only: each round is one append of batch series followed
	// by perRound queries.
	live      bool
	batch     int
	perRound  int
	threshold int // -rebuild-threshold
}

var specs = []spec{
	{name: "serve-easy", series: 500_000, tier: workload.TierNoise, snrDB: 10,
		conns: 2, perSecond: 150, checks: 48, layerQueries: 64},
	{name: "serve-hard", series: 500_000, tier: workload.TierOOD,
		conns: 1, perSecond: 6.7, checks: 12, layerQueries: 4},
	// A DTW distance costs ~30 Euclidean ones, and at the noise levels where
	// pruning works DTW latency is heavy-tailed (1% of queries take 20× the
	// median), which no 15 s sample pins down. So: a small collection and
	// queries noisy enough (3 dB) that every one of them does similar work.
	{name: "serve-dtw", series: 25_000, tier: workload.TierNoise, snrDB: 3, dtw: true,
		conns: 1, perSecond: 8, checks: 12, layerQueries: 8},
	{name: "ingest-mixed", series: 250_000, tier: workload.TierNoise, snrDB: 10,
		conns: 1, perSecond: 125, checks: 48, layerQueries: 64,
		live: true, batch: 256, perRound: 8, threshold: 5120},
}

// route is the workload's query endpoint.
func (sp spec) route() string {
	if sp.dtw {
		return "/v1/dtw"
	}
	return "/v1/search"
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int // how many measurements the value summarises
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string // the first few failed ops, described
	windowS   float64  // wall time of the timed op list
	digest    string   // SHA-256 of the timed query set
	metrics   []metric
}

// inputs is everything generated from the seed before any clock starts.
type inputs struct {
	corpus corpus
	digest string
	warm   []op
	timed  []op
}

// generate derives the data file's contents, the warm-up list and the timed
// op list from the seed. Sub-seeds keep the sets independent: the warm-up
// never replays a timed query.
func generate(sp spec, seed int64, seconds float64, traced bool) (*inputs, error) {
	queries := int(math.Round(sp.perSecond * seconds))
	if sp.live {
		queries -= queries % sp.perRound
	}
	if queries < 1 {
		return nil, fmt.Errorf("%s: %v s at %v ops/s leaves no op to time", sp.name, seconds, sp.perSecond)
	}
	base, err := dataset.Generate(dataset.RandomWalk, sp.series, seriesLen, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: corpus{base: base}}
	window := 0.0
	if sp.dtw {
		window = dtwWindow
		in.corpus.window = dtw.WindowSize(seriesLen, dtwWindow)
	}
	opts := &workload.GenOptions{NoiseSNR: sp.snrDB}
	set, err := workload.Generate(base, sp.tier, queries, seed+1, opts)
	if err != nil {
		return nil, err
	}
	in.digest = set.SHA256()
	warm, err := workload.Generate(base, sp.tier, max(1, int(warmupShare*float64(queries))), seed+2, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warm.Queries.Count(); i++ {
		q := warm.Queries.At(i)
		in.warm = append(in.warm, op{path: sp.route(), body: searchBody(q, window, false), query: q, visible: base.Count()})
	}

	checkEvery := max(1, queries/sp.checks)
	visible := base.Count()
	for i := 0; i < queries; i++ {
		if sp.live && i%sp.perRound == 0 {
			if in.corpus.appended == nil {
				rounds := queries / sp.perRound
				if in.corpus.appended, err = dataset.Generate(dataset.RandomWalk, rounds*sp.batch, seriesLen, seed+3); err != nil {
					return nil, err
				}
			}
			round := i / sp.perRound
			rows := make([][]float32, sp.batch)
			for r := range rows {
				rows[r] = in.corpus.appended.At(round*sp.batch + r)
			}
			in.timed = append(in.timed, op{path: "/v1/series", body: appendBody(rows), append: true, first: visible})
			visible += sp.batch
		}
		q := set.Queries.At(i)
		in.timed = append(in.timed, op{path: sp.route(), body: searchBody(q, window, traced), query: q,
			visible: visible, check: i%checkEvery == 0})
	}
	return in, nil
}

// serverArgs is the messi-serve command line of a workload. Live servers
// get a fresh WAL and snapshot directory per boot.
func serverArgs(sp spec, dataPath, stateDir string) []string {
	args := []string{"-data", dataPath, "-pool", pool}
	if sp.live {
		args = append(args, "-live",
			"-wal", filepath.Join(stateDir, "wal"), "-wal-sync", "always",
			"-snapshot", filepath.Join(stateDir, "snap"),
			"-rebuild-threshold", fmt.Sprint(sp.threshold))
	}
	return args
}

// writeData writes the base collection where the server will read it and
// syncs it, so that no write-back of the file competes with a timed boot.
// The file stays in the page cache: every boot reads it warm.
func writeData(path string, c *series.Collection) error {
	if err := dataset.WriteFile(path, c); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// environ is where a run finds the server binary and puts its files.
type environ struct {
	serveBin string
	work     string // scratch directory: data files, WAL and snapshot dirs
	out      string // where the traced pass writes trace-<workload>.json
}

// runWorkload runs one workload end to end: generate, boot, warm up, time
// the fixed op list, verify. With traced set it runs the op list with
// "trace": true and reports per-layer metrics; otherwise the end-to-end
// ones.
func runWorkload(ctx context.Context, env environ, sp spec, seed int64, seconds float64, traced bool) (*report, error) {
	dir, err := os.MkdirTemp(env.work, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	last := time.Now()
	lap := func(phase string) { // progress, on standard error
		fmt.Fprintf(os.Stderr, "%s: %-9s %6.2f s\n", sp.name, phase, time.Since(last).Seconds())
		last = time.Now()
	}

	in, err := generate(sp, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	lap("generate")
	dataPath := filepath.Join(dir, "data.bin")
	if err := writeData(dataPath, in.corpus.base); err != nil {
		return nil, err
	}
	lap("write")

	// Set-up: three boots, the median counts, the last one serves. A traced
	// run reports no set-up time and boots once.
	boots := 3
	if traced {
		boots = 1
	}
	var srv *server
	var stateDir string
	var bootS []float64
	for b := 0; b < boots; b++ {
		if srv != nil {
			srv.kill()
		}
		stateDir = filepath.Join(dir, fmt.Sprintf("state-%d", b))
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		var took time.Duration
		if srv, took, err = bootServer(ctx, env.serveBin, serverArgs(sp, dataPath, stateDir)...); err != nil {
			return nil, err
		}
		bootS = append(bootS, took.Seconds())
	}
	defer srv.kill()
	lap("boot")

	client := newClient(sp.conns)
	defer client.CloseIdleConnections()
	warm, _ := runOps(ctx, client, srv.base, in.warm, sp.conns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed, why, err := verify(in.warm, warm, &in.corpus); err != nil || failed > 0 {
		return nil, fmt.Errorf("%s: warm-up failed: %v %v", sp.name, why, err)
	}
	lap("warm-up")

	var tr *tracer
	if traced {
		if tr, err = startTracer(ctx, srv.base); err != nil {
			return nil, err
		}
	}
	samples, elapsed := runOps(ctx, client, srv.base, in.timed, sp.conns)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.stop(ctx); err != nil {
			return nil, err
		}
	}
	lap("timed")
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	rep := &report{workload: sp.name, attempted: len(in.timed), windowS: elapsed.Seconds(), digest: in.digest}
	var searchMS, appendMS []float64
	for i, s := range samples {
		if ms := float64(s.latency) / float64(time.Millisecond); in.timed[i].append {
			appendMS = append(appendMS, ms)
		} else {
			searchMS = append(searchMS, ms)
		}
	}
	sort.Float64s(searchMS)
	sort.Float64s(appendMS)

	if traced {
		ing := ingest{appendMS: appendMS}
		if sp.live {
			// Everything appended is in the snapshot after this, and the
			// WAL's covered prefix is truncated: what is left on disk is
			// what a restart would read.
			if err := post(ctx, client, srv.base+"/v1/snapshot"); err != nil {
				return nil, err
			}
			if ing.diskBytes, err = dirBytes(stateDir); err != nil {
				return nil, err
			}
		}
		stats, err := getStats(ctx, srv.base)
		if err != nil {
			return nil, err
		}
		srv.kill()
		if rep.metrics, err = layerMetrics(sp, in, samples, searchMS, elapsed.Seconds(), ing, tr, stats, dir); err != nil {
			return nil, err
		}
		if err := writeSpans(env.out, sp.name, in.timed, samples); err != nil {
			return nil, err
		}
	} else {
		srv.kill()
		sort.Float64s(bootS)
		n := len(searchMS)
		rep.metrics = []metric{
			{"search_p50_ms", percentile(searchMS, 0.50), "ms", n},
			{"search_p90_ms", percentile(searchMS, 0.90), "ms", n},
			{"search_qps", float64(n) / elapsed.Seconds(), "1/s", n},
			{"rss_peak_mb", rss, "MB", 1},
			{"setup_s", percentile(bootS, 0.50), "s", len(bootS)},
		}
	}

	lap("report")
	if rep.failed, rep.failures, err = verify(in.timed, samples, &in.corpus); err != nil {
		return nil, err
	}
	lap("verify")
	return rep, nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func post(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader("{}"))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, body)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
