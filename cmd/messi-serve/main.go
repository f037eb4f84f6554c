// Command messi-serve builds a MESSI index over a dataset file and serves
// similarity queries over HTTP through a persistent query engine — the
// sustained-multi-query serving scenario, as opposed to messi-query's
// one-shot exploratory runs. There is one backend, a messi.LiveIndex: a
// static index is a live one that never receives an append, so every
// query, with or without -live, takes the same path through the same
// admission gate, which hands out -pool worker tokens and sizes each query
// from its prepared plan, and starts its own worker goroutines.
//
// Usage:
//
//	messi-gen -kind random -count 100000 -out data.bin
//	messi-serve -data data.bin -addr :8080
//	messi-serve -data data.bin -live -rebuild-threshold 50000
//	messi-gen   -kind random -count 100000 -snapshot index.snap
//	messi-serve -snapshot index.snap            # restart in seconds, no rebuild
//
// API (JSON over HTTP):
//
//	GET  /healthz         → 200 "ok" once the index is built/loaded, 503 "loading" before
//	GET  /readyz          → alias of /healthz for readiness probes
//	GET  /metrics         → Prometheus text-format metrics (see below)
//	GET  /v1/stats        → index shape, generation and delta occupancy, uptime,
//	                        queries served, admission-gate configuration
//	POST /v1/search       → {"query":[...], "k":5, "dtw":false, "window":0, "mode":"exact", "epsilon":0, "deadline_ms":0}
//	                      → {"matches":[{"position":..,"distance":..}], "exact":true, "epsilon_bound":...}
//	POST /v1/knn          → same request with k ≥ 1 required
//	POST /v1/query        → {"query":[...], "k":5}         → same response (legacy alias of /v1/search)
//	POST /v1/dtw          → {"query":[...], "window":0.1}  → same response with DTW forced on
//	POST /v1/query/batch  → {"queries":[[...],[...], ...]} → {"results":[[...],[...]]}
//	POST /v1/series       → {"series":[[...], ...]}        → {"first_position":..,"count":..} (live mode only)
//	POST /v1/snapshot     → {"path":"..."} (optional)      → {"path":..,"series":..,"bytes":..}
//
// Every query endpoint accepts the quality-spectrum fields: "mode" is one
// of "exact" (default), "approx", "epsilon", "deadline"; "epsilon" is the
// relative error budget for mode=epsilon; "deadline_ms" is the latency
// budget for mode=deadline (≥ 0; 0 means no budget). Responses report "exact" (whether the answer
// is provably exact) and, for inexact answers with a proven bound,
// "epsilon_bound". With -degrade-epsilon the admission gate serves
// exact-mode requests arriving under overload as ε-bounded ones instead
// of queueing them.
//
// Observability: GET /metrics serves the process's metrics registry in
// Prometheus text format — admission-gate pressure and outcomes, per-mode
// query latency histograms, cumulative pruning counters, per-route HTTP
// latency, live-index rebuild and snapshot I/O activity, plus basic Go
// runtime stats. Query endpoints additionally accept "counters": true
// (per-query operation counts in the response) and "trace": true (the
// full per-phase wall-time breakdown of the paper's Figure 13, plus
// counters and wall-clock latency, inline in the response). With
// -slow-query the server logs the full trace of any query slower than
// the threshold. Logs are structured (key=value via log/slog) and every
// HTTP response carries an X-Request-Id header that slow-query log lines
// reference.
//
// With -live POST /v1/series appends new series that are searchable
// immediately, and a background rebuild merges them into the next index
// generation once the delta buffer crosses -rebuild-threshold. That is all
// -live switches: whether /v1/series is served (404 without it), whether
// -wal is allowed, whether the server saves to the -snapshot directory
// when it exits, and whether /v1/stats reports "live": true with the
// generation and delta fields.
//
// With -wal DIR (live mode only) every acked append is journaled to a
// write-ahead log in DIR before it becomes searchable, and a restart
// replays the log tail on top of the boot snapshot — acked series
// survive a crash even when they never made it into a snapshot.
// -wal-sync selects the durability policy ("always" fsyncs per append
// and survives power loss; "interval" batches fsyncs; "none" relies on
// the OS page cache) and -wal-segment the rotation size. Snapshots
// written on exit or by POST /v1/snapshot truncate the log's covered
// prefix, keeping replay time bounded.
//
// With -shards the index is partitioned across S independent shards built
// concurrently and queried by a fan-out with a shared pruning bound;
// /v1/stats then reports a per_shard breakdown. Answers are identical to
// an unsharded index.
//
// With -pprof the server additionally exposes net/http/pprof on a
// separate listener (keep it on loopback: it is unauthenticated), so the
// serving hot paths can be profiled in production:
//
//	messi-serve -data data.bin -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// With -snapshot the server boots from the named snapshot directory when
// it holds a MANIFEST (falling back to building from -data when the path
// is missing or is a directory a failed first save left without one),
// and the same path is the default target of POST /v1/snapshot — so a
// serve → snapshot → restart cycle needs no other coordination. A bare
// single-file snapshot from before snapshots were directories fails boot
// with a "regenerate" error. In live mode the server also saves there
// whenever it exits — on a signal or a failed listener — so the series
// appended since the last snapshot survive the restart.
//
// The listener opens before the index is built or loaded, so health
// probes get an honest 503 during a long boot instead of a connection
// refused; every API endpoint returns 503 until the index is ready.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, drains in-flight requests, then closes the index.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	messi "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/vector"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "messi-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("messi-serve", flag.ContinueOnError)
	var (
		dataPath  = fs.String("data", "", "dataset file to index (this or -snapshot is required)")
		snapPath  = fs.String("snapshot", "", "index snapshot directory: booted from when present, default target of POST /v1/snapshot")
		addr      = fs.String("addr", ":8080", "listen address")
		leafCap   = fs.Int("leaf", 0, "leaf capacity (default 2000)")
		pool      = fs.Int("pool", 0, "worker budget: the admission gate's worker tokens; a narrow tree-plan query takes one per shard and borrows idle ones, any other query takes all (default: search workers)")
		queues    = fs.Int("queues", 0, "priority queues per query (default 24)")
		degrade   = fs.Float64("degrade-epsilon", 0, "overload policy: serve exact queries arriving while no worker token is free as ε-bounded with this ε (0 disables)")
		normalize = fs.Bool("normalize", false, "z-normalize data and queries")
		liveMode  = fs.Bool("live", false, "serve a mutable live index accepting appends on POST /v1/series")
		shards    = fs.Int("shards", 0, "partition the index across this many shards (default 1)")
		threshold = fs.Int("rebuild-threshold", 0, "live mode: delta series triggering a background rebuild (default 100000)")
		walDir    = fs.String("wal", "", "live mode: write-ahead log directory — acked appends are journaled and replayed on restart")
		walSync   = fs.String("wal-sync", "always", "WAL durability policy: always (fsync per append), interval, or none")
		walSeg    = fs.Int64("wal-segment", 0, "WAL segment size in bytes before rotation (default 64 MiB)")
		slowQuery = fs.Duration("slow-query", 0, "log the full execution trace of queries slower than this (e.g. 250ms; 0 disables)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); keep it loopback-only, the listener is unauthenticated")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" && *snapPath == "" {
		return errors.New("one of -data or -snapshot is required")
	}
	if *walDir != "" && !*liveMode {
		return errors.New("-wal requires -live (only a live index journals appends)")
	}
	// A typo'd durability policy must fail at startup, not after a long
	// dataset load.
	if _, err := wal.ParseSyncPolicy(*walSync); err != nil {
		return err
	}
	if *pprofAddr != "" {
		// Profiling runs on its own listener so the debug surface never
		// shares a port (or a handler namespace) with the query API.
		_, stopPprof, err := startPprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	// One registry for the whole process: the index (its engine, rebuilds
	// and snapshots) and the HTTP layer record into it, and GET /metrics
	// serves it.
	reg := messi.NewMetrics()

	opts := &messi.Options{LeafCapacity: *leafCap, Normalize: *normalize, Shards: *shards}
	engOpts := messi.EngineOptions{
		PoolWorkers:    *pool,
		Queues:         *queues,
		DegradeEpsilon: *degrade,
		Metrics:        reg,
	}

	// The listener opens before the index boots so health probes see an
	// honest 503 ("loading") instead of a connection refused during a
	// long build; the index is installed once boot succeeds.
	s := newServer(reg, *liveMode, *snapPath, *slowQuery)
	srv := &http.Server{
		Handler: s,
		// Bound slow clients: a connection may not hold a goroutine and
		// fd forever by trickling bytes (batch bodies can be large, so
		// the full-request ReadTimeout stays generous).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	slog.Info("listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	lopts := &messi.LiveOptions{
		RebuildThreshold: *threshold,
		Engine:           engOpts,
		WALDir:           *walDir,
		WALSync:          *walSync,
		WALSegmentBytes:  *walSeg,
	}
	ix, source, err := boot(*dataPath, *snapPath, opts, lopts)
	if err != nil {
		srv.Close()
		return err
	}
	// Deferred, so a failed listener and a signal both save and close.
	defer closeIndex(ix, *liveMode, *snapPath)
	warnShardMismatch(*shards, ix.Stats().Shards)
	logReady(ix, source, *liveMode, *threshold, *walDir)
	s.install(ix)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down", "addr", ln.Addr().String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}

// closeIndex is the server's one exit for the index. In live mode with a
// snapshot path it first saves there, so the series appended since the
// last snapshot, the delta included, survive the restart; then it closes
// the index. A failure of either is a durability gap worth a log line even
// on the way out.
func closeIndex(ix *messi.LiveIndex, live bool, snapPath string) {
	if live && snapPath != "" {
		if err := ix.Save(snapPath); err != nil {
			slog.Error("shutdown snapshot failed", "path", snapPath, "err", err)
		} else {
			slog.Info("shutdown snapshot saved", "path", snapPath,
				"series", ix.Len(), "gen", ix.Stats().Generation)
		}
	}
	if err := ix.Close(); err != nil {
		slog.Error("index close failed", "err", err)
	}
}

// logReady writes the boot's "index ready" line. distance_kernel names the
// Euclidean kernel in use ("avx" or "go"), which sets the speed of every
// scan, and leaf_filter the leaf scans' lower-bound filter ("avx512vbmi" or
// "go").
func logReady(ix *messi.LiveIndex, source string, live bool, threshold int, walDir string) {
	slog.Info("index ready", "source", source, "series", ix.Len(), "series_len", ix.SeriesLen(),
		"live", live, "rebuild_threshold", threshold, "wal", walDir, "distance_kernel", vector.Kernel(),
		"leaf_filter", core.LeafFilter())
}

// warnShardMismatch logs when the -shards flag disagrees with the served
// index's actual shard count — booting from an existing snapshot keeps
// the snapshot's own partition (a snapshot cannot be re-sharded on load),
// so the flag is silently superseded and the operator should know.
func warnShardMismatch(requested, actual int) {
	if requested > 0 && requested != actual {
		slog.Warn("-shards ignored: the loaded snapshot keeps its own partition; re-shard by rebuilding from -data",
			"requested", requested, "actual", actual)
	}
}

// startPprof serves the net/http/pprof handlers on their own listener —
// production hot paths can be profiled (CPU, heap, mutex, goroutine)
// without exposing the debug surface through the query API's port. It
// returns the bound address and a shutdown func. Registration is
// explicit on a private mux: the pprof package's import side effect
// touches only http.DefaultServeMux, which this binary never serves.
func startPprof(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			slog.Error("pprof server failed", "err", err)
		}
	}()
	slog.Info("pprof listening", "addr", ln.Addr().String())
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// boot resolves what the server serves: the snapshot when one is
// available — it becomes the index's first generation — the dataset file
// otherwise. A missing path, or a directory with no MANIFEST (what a
// failed first save leaves), is no snapshot; anything else is loaded, so
// a bare pre-directory snapshot file fails boot instead of being rebuilt
// over. It returns a human-readable source description for the boot
// log. Load failures name the failing path — a dataset error is
// additionally logged before it aborts startup, so a restart loop is
// diagnosable from the server's own output, not just the exit status.
func boot(dataPath, snapPath string, opts *messi.Options, lopts *messi.LiveOptions) (*messi.LiveIndex, string, error) {
	start := time.Now()
	if snapPath != "" {
		if persist.Present(snapPath) {
			ix, err := messi.LoadLive(snapPath, opts, lopts)
			if err != nil {
				return nil, "", fmt.Errorf("load snapshot %s: %w", snapPath, err)
			}
			return ix, fmt.Sprintf("loaded snapshot %s in %v", snapPath, time.Since(start).Round(time.Millisecond)), nil
		}
		slog.Info("snapshot not found, building from dataset", "path", snapPath, "data", dataPath)
		if dataPath == "" {
			return nil, "", fmt.Errorf("no snapshot at %s and no -data to build from", snapPath)
		}
	}
	ix, err := messi.BuildLiveFromFile(dataPath, opts, lopts)
	if err != nil {
		err = fmt.Errorf("load dataset %s: %w", dataPath, err)
		slog.Error("boot failed", "path", dataPath, "err", err)
		return nil, "", err
	}
	return ix, fmt.Sprintf("indexed %s in %v", dataPath, time.Since(start).Round(time.Millisecond)), nil
}

// searchRequest is the wire form of a quality-spectrum query, shared by
// /v1/search, /v1/knn, /v1/query and /v1/dtw.
type searchRequest struct {
	Query      []float32 `json:"query"`
	K          int       `json:"k,omitempty"`
	DTW        bool      `json:"dtw,omitempty"`
	Window     float64   `json:"window,omitempty"`
	Mode       string    `json:"mode,omitempty"`
	Epsilon    float64   `json:"epsilon,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	// Counters asks for per-query operation counts in the response;
	// Trace additionally asks for the per-phase wall-time breakdown and
	// the query's latency (a superset of Counters).
	Counters bool `json:"counters,omitempty"`
	Trace    bool `json:"trace,omitempty"`
}

// The legacy endpoints accept the same superset body.
type (
	queryRequest = searchRequest
	dtwRequest   = searchRequest
)

// toSearchRequest converts the wire form to the library request.
func (sr searchRequest) toSearchRequest() (messi.SearchRequest, error) {
	mode, err := messi.ParseMode(sr.Mode)
	if err != nil {
		return messi.SearchRequest{}, err
	}
	// A larger budget would wrap around in time.Duration and become a tiny
	// (or negative) one.
	if sr.DeadlineMS > math.MaxInt64/int64(time.Millisecond) {
		return messi.SearchRequest{}, fmt.Errorf("%w: deadline_ms %d overflows a duration", messi.ErrBadDeadline, sr.DeadlineMS)
	}
	return messi.SearchRequest{
		Query:    sr.Query,
		K:        sr.K,
		DTW:      sr.DTW,
		Window:   sr.Window,
		Mode:     mode,
		Epsilon:  sr.Epsilon,
		Deadline: time.Duration(sr.DeadlineMS) * time.Millisecond,
		Counters: sr.Counters,
		Trace:    sr.Trace,
	}, nil
}

// jsonTracePhase is one Figure 13 phase timing in a trace response.
type jsonTracePhase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// jsonTrace is the wire form of a per-query execution trace. Phase times
// are worker-seconds (phases run on many workers concurrently), so their
// sum can exceed elapsed_seconds.
type jsonTrace struct {
	ElapsedSeconds float64             `json:"elapsed_seconds"`
	Phases         []jsonTracePhase    `json:"phases"`
	Counters       messi.QueryCounters `json:"counters"`
}

func toJSONTrace(tr *messi.Trace) *jsonTrace {
	out := &jsonTrace{
		ElapsedSeconds: tr.Elapsed.Seconds(),
		Phases:         make([]jsonTracePhase, len(tr.Phases)),
		Counters:       tr.Counters,
	}
	for i, p := range tr.Phases {
		out.Phases[i] = jsonTracePhase{Name: p.Name, Seconds: p.Duration.Seconds()}
	}
	return out
}

type queryResponse struct {
	Matches []messi.Match `json:"matches"`
	// Exact reports whether the answer is provably exact; EpsilonBound is
	// the proven relative error bound for inexact answers that have one
	// (omitted when exact, or when nothing was proven — mode=approx and
	// deadline truncations).
	Exact        bool                 `json:"exact"`
	EpsilonBound *float64             `json:"epsilon_bound,omitempty"`
	Counters     *messi.QueryCounters `json:"counters,omitempty"`
	Trace        *jsonTrace           `json:"trace,omitempty"`
}

// toQueryResponse converts a library result to the wire form. +Inf (no
// proven bound) is not representable in JSON and means "omit".
func toQueryResponse(res messi.Result) queryResponse {
	resp := queryResponse{Matches: res.Matches, Exact: res.Exact, Counters: res.Counters}
	if !res.Exact && !math.IsInf(res.EpsilonBound, 1) {
		eb := res.EpsilonBound
		resp.EpsilonBound = &eb
	}
	if res.Trace != nil {
		resp.Trace = toJSONTrace(res.Trace)
	}
	return resp
}

type batchRequest struct {
	Queries [][]float32 `json:"queries"`
}

type batchResponse struct {
	Results [][]messi.Match `json:"results"`
}

type appendRequest struct {
	Series [][]float32 `json:"series"`
}

type appendResponse struct {
	FirstPosition int `json:"first_position"`
	Count         int `json:"count"`
}

type snapshotRequest struct {
	Path string `json:"path,omitempty"`
}

type snapshotResponse struct {
	Path   string `json:"path"`
	Series int    `json:"series"`
	Bytes  int64  `json:"bytes"`
}

// admissionConfig is the engine's effective admission-gate configuration,
// reported by /v1/stats so operators can see the limits in force.
type admissionConfig struct {
	PoolWorkers    int     `json:"pool_workers"`
	Queues         int     `json:"queues"`
	DegradeEpsilon float64 `json:"degrade_epsilon,omitempty"`
}

type statsResponse struct {
	Series        int          `json:"series"`
	SeriesLen     int          `json:"series_len"`
	RootChildren  int          `json:"root_children"`
	InternalNodes int          `json:"internal_nodes"`
	Leaves        int          `json:"leaves"`
	MaxDepth      int          `json:"max_depth"`
	MaxLeafFill   int          `json:"max_leaf_fill"`
	Shards        int          `json:"shards,omitempty"`    // >1 when sharded
	PerShard      []shardStats `json:"per_shard,omitempty"` // one entry per shard when sharded
	Live          bool         `json:"live"`
	Generation    int64        `json:"generation,omitempty"`
	BaseSeries    int          `json:"base_series,omitempty"`
	DeltaSeries   int          `json:"delta_series,omitempty"`
	Rebuilding    bool         `json:"rebuilding,omitempty"`
	// Server-level fields.
	UptimeSeconds float64          `json:"uptime_seconds,omitempty"`
	QueriesServed int64            `json:"queries_served,omitempty"`
	Admission     *admissionConfig `json:"admission,omitempty"`
}

// shardStats is one shard's slice of the stats (tree counts are per
// shard; the top-level fields aggregate them).
type shardStats struct {
	Shard       int `json:"shard"`
	Series      int `json:"series"`
	Leaves      int `json:"leaves"`
	MaxDepth    int `json:"max_depth"`
	MaxLeafFill int `json:"max_leaf_fill"`
}

// toShardStats converts the library's per-shard stats to the wire form.
func toShardStats(per []messi.Stats) []shardStats {
	out := make([]shardStats, len(per))
	for i, st := range per {
		out[i] = shardStats{
			Shard:       i,
			Series:      st.Series,
			Leaves:      st.Leaves,
			MaxDepth:    st.MaxDepth,
			MaxLeafFill: st.MaxLeafFill,
		}
	}
	return out
}

// stats reports the served index's shape; the generation and delta fields
// belong to live mode.
func (s *server) stats(ix *messi.LiveIndex) statsResponse {
	st := ix.Stats()
	resp := statsResponse{
		Series:        st.Series,
		SeriesLen:     ix.SeriesLen(),
		RootChildren:  st.Index.RootChildren,
		InternalNodes: st.Index.InternalNodes,
		Leaves:        st.Index.Leaves,
		MaxDepth:      st.Index.MaxDepth,
		MaxLeafFill:   st.Index.MaxLeafFill,
		Live:          s.live,
	}
	if s.live {
		resp.Generation = st.Generation
		resp.BaseSeries = st.BaseSeries
		resp.DeltaSeries = st.DeltaSeries
		resp.Rebuilding = st.Rebuilding
	}
	if st.Shards > 1 {
		resp.Shards = st.Shards
		resp.PerShard = toShardStats(st.PerShard)
	}
	return resp
}

// server is the HTTP layer around the served index: routing, readiness
// gating, per-route latency metrics, request IDs, and slow-query trace
// logging. The index is installed only after boot completes, so every
// endpoint (including the health probes) answers 503 while a snapshot
// load or index build is still running behind an already-open listener.
type server struct {
	mux   *http.ServeMux
	reg   *messi.Metrics
	start time.Time

	index atomic.Pointer[messi.LiveIndex] // nil until install

	live                bool          // -live: POST /v1/series is served, /v1/stats reports the live fields
	defaultSnapshotPath string        // -snapshot: POST /v1/snapshot target when the body names none
	slowQuery           time.Duration // -slow-query: trace-log threshold (0 disables)

	queries atomic.Int64 // quality-spectrum and batch queries answered
	reqID   atomic.Int64 // X-Request-Id source
}

// newServer builds the HTTP API recording into reg. The returned server
// is not ready (everything 503s) until install is called with an index.
func newServer(reg *messi.Metrics, live bool, defaultSnapshotPath string, slowQuery time.Duration) *server {
	s := &server{
		mux:                 http.NewServeMux(),
		reg:                 reg,
		start:               time.Now(),
		live:                live,
		defaultSnapshotPath: defaultSnapshotPath,
		slowQuery:           slowQuery,
	}
	s.routes()
	return s
}

// install makes ix the served index; the server reports ready from now
// on. Safe to call while requests are in flight.
func (s *server) install(ix *messi.LiveIndex) { s.index.Store(ix) }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// newHandler builds a ready HTTP API around an index with a private
// metrics registry — the embedding/test entry point. run() instead wires
// one shared registry through every layer and installs the index only
// after boot.
func newHandler(ix *messi.LiveIndex, live bool, defaultSnapshotPath string) http.Handler {
	s := newServer(messi.NewMetrics(), live, defaultSnapshotPath, 0)
	s.install(ix)
	return s
}

// servedRoutes returns every route pattern the server registers, in
// documentation order — the single source of truth the README's endpoint
// table is checked against (TestREADMEDocumentsServedRoutes). routes()
// panics if this list and the handler map ever disagree, so a route
// cannot be added in one place only.
func servedRoutes() []string {
	return []string{
		"GET /healthz",
		"GET /readyz",
		"GET /metrics",
		"GET /v1/stats",
		"POST /v1/search",
		"POST /v1/knn",
		"POST /v1/query",
		"POST /v1/dtw",
		"POST /v1/query/batch",
		"POST /v1/series",
		"POST /v1/snapshot",
	}
}

func (s *server) routes() {
	health := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.index.Load() == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "loading")
			return
		}
		fmt.Fprintln(w, "ok")
	}
	handlers := map[string]http.HandlerFunc{
		"GET /healthz":    health,
		"GET /readyz":     health, // alias for readiness probes
		"GET /metrics":    s.handleMetrics,
		"GET /v1/stats":   s.handleStats,
		"POST /v1/search": s.searchHandler(nil),
		"POST /v1/query":  s.searchHandler(nil), // legacy alias of /v1/search
		"POST /v1/knn": s.searchHandler(func(sr *searchRequest) error {
			if sr.K < 1 {
				return fmt.Errorf("k must be at least 1, got %d", sr.K)
			}
			return nil
		}),
		"POST /v1/dtw": s.searchHandler(func(sr *searchRequest) error {
			sr.DTW = true
			return nil
		}),
		"POST /v1/query/batch": s.handleBatch,
		"POST /v1/snapshot":    s.handleSnapshot,
		"POST /v1/series":      s.handleAppend,
	}
	served := servedRoutes()
	if len(handlers) != len(served) {
		panic(fmt.Sprintf("servedRoutes lists %d routes, handlers map has %d", len(served), len(handlers)))
	}
	for _, pattern := range served {
		h, ok := handlers[pattern]
		if !ok {
			panic("servedRoutes lists " + pattern + " but no handler is registered for it")
		}
		s.route(pattern, h)
	}
}

// route registers one endpoint wrapped with per-route telemetry: a
// latency histogram and per-status-class request counters labeled with
// the route path (a fixed set, so label cardinality is bounded), plus a
// request ID issued into the context and echoed as X-Request-Id.
func (s *server) route(pattern string, h http.HandlerFunc) {
	path := pattern[strings.IndexByte(pattern, ' ')+1:]
	dur := s.reg.Histogram("messi_http_request_seconds",
		"Wall time of HTTP requests by route.", metrics.L("path", path))
	var classes [5]*metrics.Counter
	for i := range classes {
		classes[i] = s.reg.Counter("messi_http_requests_total",
			"HTTP requests served, by route and status class.",
			metrics.L("path", path), metrics.L("code", fmt.Sprintf("%dxx", i+1)))
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%08x", s.reqID.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		dur.Observe(time.Since(start))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if c := status/100 - 1; c >= 0 && c < len(classes) {
			classes[c].Inc()
		}
	})
}

// statusWriter records the status code for the per-route counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// reqIDKey carries the per-request ID through the context.
type reqIDKey struct{}

// requestID returns the request's ID, or "" outside a routed request.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// ready returns the served index, writing a 503 and returning nil while
// it is still booting.
func (s *server) ready(w http.ResponseWriter) *messi.LiveIndex {
	ix := s.index.Load()
	if ix == nil {
		writeError(w, http.StatusServiceUnavailable, "index is still loading")
	}
	return ix
}

// handleMetrics serves the registry plus Go runtime stats in Prometheus
// text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		return // client went away mid-scrape; nothing to salvage
	}
	_ = messi.WriteRuntimeMetrics(w)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	ix := s.ready(w)
	if ix == nil {
		return
	}
	resp := s.stats(ix)
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.QueriesServed = s.queries.Load()
	eo := ix.EngineOptions()
	resp.Admission = &admissionConfig{
		PoolWorkers:    eo.PoolWorkers,
		Queues:         eo.Queues,
		DegradeEpsilon: eo.DegradeEpsilon,
	}
	writeJSON(w, http.StatusOK, resp)
}

// searchHandler serves the whole quality spectrum; prep adjusts the
// decoded request for endpoint-specific contracts (forcing DTW on for
// /v1/dtw, requiring k for /v1/knn) before it reaches the library.
func (s *server) searchHandler(prep func(*searchRequest) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ix := s.ready(w)
		if ix == nil {
			return
		}
		var req searchRequest
		if !readJSON(w, r, &req) {
			return
		}
		if prep != nil {
			if err := prep(&req); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		mreq, err := req.toSearchRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Slow-query logging needs the trace even when the client did not
		// ask for one: collect it unconditionally and strip it from the
		// response below.
		wantTrace := mreq.Trace
		if s.slowQuery > 0 {
			mreq.Trace = true
		}
		start := time.Now()
		res, err := ix.Do(r.Context(), mreq)
		elapsed := time.Since(start)
		s.queries.Add(1)
		if err != nil {
			writeError(w, errorStatus(err), err.Error())
			return
		}
		if s.slowQuery > 0 && elapsed >= s.slowQuery {
			s.logSlowQuery(r, mreq, res, elapsed)
		}
		if !wantTrace {
			res.Trace = nil
		}
		writeJSON(w, http.StatusOK, toQueryResponse(res))
	}
}

// logSlowQuery logs the full execution trace of one slow query: what it
// asked for, how long it ran, and where the time and the work went.
func (s *server) logSlowQuery(r *http.Request, req messi.SearchRequest, res messi.Result, elapsed time.Duration) {
	attrs := []any{
		"id", requestID(r.Context()),
		"path", r.URL.Path,
		"elapsed", elapsed,
		"mode", req.Mode.String(),
		"k", req.K,
		"dtw", req.DTW,
		"exact", res.Exact,
	}
	if tr := res.Trace; tr != nil {
		for _, p := range tr.Phases {
			attrs = append(attrs, phaseKey(p.Name), p.Duration)
		}
		c := tr.Counters
		attrs = append(attrs,
			"nodes_visited", c.NodesVisited,
			"lower_bounds", c.LowerBounds,
			"real_distances", c.RealDistances,
			"leaves_inserted", c.LeavesInserted,
			"leaves_pruned", c.LeavesPruned,
			"bsf_updates", c.BSFUpdates,
			"scan_plans", c.ScanPlans,
		)
	}
	slog.Warn("slow query", attrs...)
}

// phaseKey turns a Figure 13 phase label into a log attribute key
// ("MESSI tree pass" → "messi_tree_pass").
func phaseKey(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "_"))
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ix := s.ready(w)
	if ix == nil {
		return
	}
	var req batchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries must be non-empty")
		return
	}
	// A fixed submitter fleet over Do: as many queries in flight as the
	// gate has worker tokens, under the request's context — once the client
	// is gone the remaining queries are not started.
	resp := batchResponse{Results: make([][]messi.Match, len(req.Queries))}
	err := engine.ForEach(len(req.Queries), ix.EngineOptions().PoolWorkers, func(i int) error {
		if err := r.Context().Err(); err != nil {
			return err
		}
		res, err := ix.Do(r.Context(), messi.SearchRequest{Query: req.Queries[i]})
		if err == nil {
			resp.Results[i] = res.Matches
		}
		return err
	})
	s.queries.Add(int64(len(req.Queries)))
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ix := s.ready(w)
	if ix == nil {
		return
	}
	// The body is optional: an empty POST snapshots to the default.
	var req snapshotRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	path := req.Path
	if path == "" {
		path = s.defaultSnapshotPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest, "no snapshot path: pass {\"path\":...} or start with -snapshot")
		return
	}
	// Save flushes first, so the snapshot includes everything appended so
	// far.
	if err := ix.Save(path); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Path: path, Series: ix.Len(), Bytes: persist.Size(path)})
}

// handleAppend serves POST /v1/series. The route always exists (so it
// can 503 during boot like everything else), but without -live it answers
// 404 exactly as when the route was not registered at all.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	ix := s.ready(w)
	if ix == nil {
		return
	}
	if !s.live {
		http.NotFound(w, r)
		return
	}
	var req appendRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Series) == 0 {
		writeError(w, http.StatusBadRequest, "series must be non-empty")
		return
	}
	first, err := ix.AppendBatch(req.Series)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{FirstPosition: first, Count: len(req.Series)})
}

// readJSON decodes the request body, writing a 400 and reporting false on
// malformed input.
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("write response failed", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// errorStatus classifies a query or append error: the library's typed
// sentinels are the client's fault (400), a context torn down mid-query
// maps to 503, and anything else — a failed WAL write, a closed index —
// is the server's problem (500).
func errorStatus(err error) int {
	switch {
	case errors.Is(err, messi.ErrBadK),
		errors.Is(err, messi.ErrBadWindow),
		errors.Is(err, messi.ErrWrongLength),
		errors.Is(err, messi.ErrBadEpsilon),
		errors.Is(err, messi.ErrBadDeadline),
		errors.Is(err, messi.ErrNonFinite):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
