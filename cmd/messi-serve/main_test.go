package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	messi "repro"
	"repro/internal/fault"
)

// doer is the unified query method shared by Index and LiveIndex.
type doer interface {
	Do(context.Context, messi.SearchRequest) (messi.Result, error)
}

// exactDo answers a request through the library's unified API, failing
// the test on error — the reference answer served responses must match.
func exactDo(t *testing.T, ix doer, req messi.SearchRequest) messi.Result {
	t.Helper()
	res, err := ix.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSeries fetches an indexed series, failing the test on range errors.
func mustSeries(t *testing.T, ix *messi.Index, pos int) []float32 {
	t.Helper()
	s, err := ix.Series(pos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serveStatic builds what the server serves without -live — a live index
// that never receives an append — and the HTTP API around it.
func serveStatic(t *testing.T, data []float32, opts *messi.Options, defaultSnapshotPath string) http.Handler {
	t.Helper()
	lix, err := messi.BuildLiveFlat(data, 64, opts,
		&messi.LiveOptions{Engine: messi.EngineOptions{PoolWorkers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lix.Close() })
	return newHandler(lix, false, defaultSnapshotPath)
}

// newTestHandler builds the static HTTP API over a small collection, plus
// an immutable index over the same data as the reference.
func newTestHandler(t *testing.T) (http.Handler, *messi.Index) {
	t.Helper()
	opts := &messi.Options{LeafCapacity: 64}
	ix, err := messi.BuildFlat(messi.RandomWalk(1500, 64, 11), 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	return serveStatic(t, messi.RandomWalk(1500, 64, 11), opts, ""), ix
}

// newLiveTestHandler builds a small live index and the HTTP API around it.
func newLiveTestHandler(t *testing.T) (http.Handler, *messi.LiveIndex) {
	t.Helper()
	data := messi.RandomWalk(800, 64, 12)
	lix, err := messi.BuildLiveFlat(data, 64, &messi.Options{LeafCapacity: 64, SearchWorkers: 4},
		&messi.LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lix.Close() })
	return newHandler(lix, true, ""), lix
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decode[T any](t *testing.T, rr *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rr.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	h, _ := newTestHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rr.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: status %d, body %s", rr.Code, rr.Body)
	}
	st := decode[statsResponse](t, rr)
	if st.Series != ix.Len() || st.SeriesLen != ix.SeriesLen() {
		t.Fatalf("stats %+v do not match index %d×%d", st, ix.Len(), ix.SeriesLen())
	}
	if st.Leaves == 0 {
		t.Fatal("stats report zero leaves")
	}
	if st.MaxLeafFill != ix.Stats().MaxLeafFill || st.MaxLeafFill == 0 {
		t.Fatalf("stats max_leaf_fill = %d, index reports %d", st.MaxLeafFill, ix.Stats().MaxLeafFill)
	}
	if st.Live {
		t.Fatal("static index reported live=true")
	}
}

// TestAppendNotRegisteredStatic: /v1/series must not exist without -live.
func TestAppendNotRegisteredStatic(t *testing.T) {
	h, _ := newTestHandler(t)
	rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{make([]float32, 64)}})
	if rr.Code == http.StatusOK {
		t.Fatalf("static handler accepted an append (status %d)", rr.Code)
	}
}

// TestLiveAppendAndQuery: appended series are immediately searchable and
// the live stats expose generation and delta occupancy.
func TestLiveAppendAndQuery(t *testing.T) {
	h, lix := newLiveTestHandler(t)

	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 1000 + float32(i)
	}
	rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{novel}})
	if rr.Code != http.StatusOK {
		t.Fatalf("append: status %d, body %s", rr.Code, rr.Body)
	}
	ar := decode[appendResponse](t, rr)
	if ar.FirstPosition != 800 || ar.Count != 1 {
		t.Fatalf("append response %+v, want first_position 800 count 1", ar)
	}

	rr = postJSON(t, h, "/v1/query", queryRequest{Query: novel})
	if rr.Code != http.StatusOK {
		t.Fatalf("query: status %d, body %s", rr.Code, rr.Body)
	}
	qr := decode[queryResponse](t, rr)
	if len(qr.Matches) != 1 || qr.Matches[0].Position != 800 || qr.Matches[0].Distance != 0 {
		t.Fatalf("freshly appended series not found: %+v", qr.Matches)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	srr := httptest.NewRecorder()
	h.ServeHTTP(srr, req)
	st := decode[statsResponse](t, srr)
	if !st.Live || st.Series != 801 || st.DeltaSeries != 1 || st.BaseSeries != 800 || st.Generation != 1 {
		t.Fatalf("live stats %+v", st)
	}

	// After a flush the appended series is part of the next generation.
	if err := lix.Flush(); err != nil {
		t.Fatal(err)
	}
	srr = httptest.NewRecorder()
	h.ServeHTTP(srr, req)
	st = decode[statsResponse](t, srr)
	if st.DeltaSeries != 0 || st.BaseSeries != 801 || st.Generation != 2 {
		t.Fatalf("post-flush live stats %+v", st)
	}
	rr = postJSON(t, h, "/v1/query", queryRequest{Query: novel})
	qr = decode[queryResponse](t, rr)
	if len(qr.Matches) != 1 || qr.Matches[0].Position != 800 || qr.Matches[0].Distance != 0 {
		t.Fatalf("appended series lost across rebuild: %+v", qr.Matches)
	}
}

// TestLiveWALRestartRecoversAppends: series appended over HTTP into a
// WAL-backed live index survive a crash (no flush, no snapshot) and are
// searchable again after the reboot.
func TestLiveWALRestartRecoversAppends(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	lopts := &messi.LiveOptions{RebuildThreshold: 1 << 30, WALDir: walDir}
	lix, err := messi.NewLive(64, &messi.Options{LeafCapacity: 64, SearchWorkers: 2}, lopts)
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler(lix, true, "")
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 100 + float32(i)
	}
	if rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{novel}}); rr.Code != http.StatusOK {
		t.Fatalf("append: status %d, body %s", rr.Code, rr.Body)
	}
	lix.Close() // crash: nothing was ever flushed or snapshotted

	rec, err := messi.NewLive(64, &messi.Options{LeafCapacity: 64, SearchWorkers: 2}, lopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	if rec.Len() != 1 {
		t.Fatalf("recovered %d series, want 1", rec.Len())
	}
	h = newHandler(rec, true, "")
	rr := postJSON(t, h, "/v1/query", queryRequest{Query: novel})
	if rr.Code != http.StatusOK {
		t.Fatalf("query after reboot: status %d, body %s", rr.Code, rr.Body)
	}
	qr := decode[queryResponse](t, rr)
	if len(qr.Matches) != 1 || qr.Matches[0].Position != 0 || qr.Matches[0].Distance != 0 {
		t.Fatalf("journaled series not recovered: %+v", qr.Matches)
	}
}

// TestLiveBatchEndpoint: batch answers in live mode match one-shot live
// searches, including over freshly appended series.
func TestLiveBatchEndpoint(t *testing.T) {
	h, lix := newLiveTestHandler(t)
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = -500 - float32(i)
	}
	if rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{novel}}); rr.Code != http.StatusOK {
		t.Fatalf("append: status %d, body %s", rr.Code, rr.Body)
	}
	queries := make([][]float32, 5)
	for i := range queries {
		s, err := lix.Series(i * 150)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = make([]float32, 64)
		copy(queries[i], s)
	}
	queries = append(queries, novel)
	rr := postJSON(t, h, "/v1/query/batch", batchRequest{Queries: queries})
	if rr.Code != http.StatusOK {
		t.Fatalf("live batch: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[batchResponse](t, rr)
	if len(resp.Results) != len(queries) {
		t.Fatalf("live batch returned %d results, want %d", len(resp.Results), len(queries))
	}
	for i, ms := range resp.Results {
		want := exactDo(t, lix, messi.SearchRequest{Query: queries[i]}).Best()
		if len(ms) != 1 || ms[0].Position != want.Position {
			t.Fatalf("live batch result %d: served %+v, library %+v", i, ms, want)
		}
	}
	if last := resp.Results[len(queries)-1][0]; last.Position != 800 || last.Distance != 0 {
		t.Fatalf("batch did not find the appended series: %+v", last)
	}
}

// TestLiveBadAppends: malformed append bodies are rejected.
func TestLiveBadAppends(t *testing.T) {
	h, _ := newLiveTestHandler(t)
	if rr := postJSON(t, h, "/v1/series", appendRequest{}); rr.Code != http.StatusBadRequest {
		t.Errorf("empty append: status %d, want 400", rr.Code)
	}
	if rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{{1, 2}}}); rr.Code != http.StatusBadRequest {
		t.Errorf("short series append: status %d, want 400", rr.Code)
	}
}

// TestAppendFailureStatus: POST /v1/series blames the client only for the
// client's fault. A row of the wrong length is a 400; a WAL write that
// fails is the server's problem, a 500, and the batch is not acked.
func TestAppendFailureStatus(t *testing.T) {
	lix, err := messi.NewLive(64, &messi.Options{LeafCapacity: 64, SearchWorkers: 2},
		&messi.LiveOptions{WALDir: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lix.Close() })
	h := newHandler(lix, true, "")
	good := messi.RandomWalk(1, 64, 13)

	rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{good, good[:10]}})
	if rr.Code != http.StatusBadRequest {
		t.Errorf("wrong-length row: status %d, want 400 (body %s)", rr.Code, rr.Body)
	}

	t.Cleanup(fault.DisarmAll)
	if err := fault.Arm("wal.append.write", fault.Spec{Action: fault.Error}); err != nil {
		t.Fatal(err)
	}
	rr = postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{good}})
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("failed WAL write: status %d, want 500 (body %s)", rr.Code, rr.Body)
	}
	if n := lix.Len(); n != 0 {
		t.Errorf("Len = %d after refused appends, want 0", n)
	}
}

// TestQueryEndpoint: the served 1-NN answer must equal the library answer.
func TestQueryEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 123))
	want := exactDo(t, ix, messi.SearchRequest{Query: q}).Best()

	rr := postJSON(t, h, "/v1/query", queryRequest{Query: q})
	if rr.Code != http.StatusOK {
		t.Fatalf("query: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if len(resp.Matches) != 1 {
		t.Fatalf("query returned %d matches, want 1", len(resp.Matches))
	}
	if got := resp.Matches[0]; got.Position != want.Position || got.Distance != want.Distance {
		t.Fatalf("served %+v, library %+v", got, want)
	}
}

func TestQueryKNNEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 7))
	want := exactDo(t, ix, messi.SearchRequest{Query: q, K: 3}).Matches

	rr := postJSON(t, h, "/v1/query", queryRequest{Query: q, K: 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("k-NN query: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if len(resp.Matches) != len(want) {
		t.Fatalf("k-NN returned %d matches, want %d", len(resp.Matches), len(want))
	}
	for i, m := range resp.Matches {
		if m.Position != want[i].Position || m.Distance != want[i].Distance {
			t.Fatalf("k-NN match %d: served %+v, library %+v", i, m, want[i])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	queries := make([][]float32, 4)
	for i := range queries {
		queries[i] = make([]float32, 64)
		copy(queries[i], mustSeries(t, ix, i*100))
	}
	rr := postJSON(t, h, "/v1/query/batch", batchRequest{Queries: queries})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[batchResponse](t, rr)
	if len(resp.Results) != len(queries) {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), len(queries))
	}
	for i, ms := range resp.Results {
		want := exactDo(t, ix, messi.SearchRequest{Query: queries[i]}).Best()
		if len(ms) != 1 || ms[0].Position != want.Position {
			t.Fatalf("batch result %d: served %+v, library %+v", i, ms, want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	h, _ := newTestHandler(t)
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
	}{
		{"malformed JSON", func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader([]byte("{nope")))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			return rr
		}},
		{"wrong query length", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/v1/query", queryRequest{Query: make([]float32, 7)})
		}},
		{"negative k", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/v1/query", queryRequest{Query: make([]float32, 64), K: -2})
		}},
		{"empty batch", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/v1/query/batch", batchRequest{})
		}},
		{"batch with bad query", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/v1/query/batch", batchRequest{Queries: [][]float32{make([]float32, 5)}})
		}},
	}
	for _, tc := range cases {
		if rr := tc.do(); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rr.Code, rr.Body)
		}
	}
}

// TestRunFlagValidation: run() rejects a missing -data without starting.
func TestRunFlagValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("run without -data or -snapshot did not error")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-data", "/nonexistent/file.bin"}); err == nil {
		t.Fatal("run with missing dataset file did not error")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-data", "x.bin", "-wal", "wal"}); err == nil ||
		!strings.Contains(err.Error(), "-live") {
		t.Fatalf("run with -wal but no -live: err = %v, want a -live hint", err)
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-data", "/nonexistent/file.bin",
		"-live", "-wal", "wal", "-wal-sync", "sometimes"}); err == nil ||
		!strings.Contains(err.Error(), "sync policy") {
		t.Fatalf("run with bad -wal-sync: err = %v, want a sync policy error", err)
	}
}

// TestRunLiveDatasetLoadError: a bad dataset in -live mode must abort
// startup with an error naming the failing path (and run's caller exits
// non-zero on it) — not fail silently before the listener opens.
func TestRunLiveDatasetLoadError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.bin")
	err := run([]string{"-addr", "127.0.0.1:0", "-live", "-data", missing})
	if err == nil {
		t.Fatal("run -live with missing dataset file did not error")
	}
	if !strings.Contains(err.Error(), missing) {
		t.Fatalf("error %q does not name the failing path %q", err, missing)
	}

	// Same for a present-but-corrupt dataset file.
	corrupt := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(corrupt, []byte("this is not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-addr", "127.0.0.1:0", "-live", "-data", corrupt})
	if err == nil {
		t.Fatal("run -live with corrupt dataset file did not error")
	}
	if !strings.Contains(err.Error(), corrupt) {
		t.Fatalf("error %q does not name the failing path %q", err, corrupt)
	}
}

// TestSnapshotEndpointAndBoot: POST /v1/snapshot writes a loadable
// snapshot, and boot prefers it over rebuilding.
func TestSnapshotEndpointAndBoot(t *testing.T) {
	h, ix := newTestHandler(t)
	path := filepath.Join(t.TempDir(), "served.snap")

	rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{Path: path})
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d, body %s", rr.Code, rr.Body)
	}
	sr := decode[snapshotResponse](t, rr)
	if sr.Path != path || sr.Series != ix.Len() || sr.Bytes == 0 {
		t.Fatalf("snapshot response %+v", sr)
	}

	loaded, err := messi.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 42))
	want := exactDo(t, ix, messi.SearchRequest{Query: q}).Best()
	got := exactDo(t, loaded, messi.SearchRequest{Query: q}).Best()
	if got != want {
		t.Fatalf("loaded snapshot answered %+v, served index %+v", got, want)
	}

	// boot: snapshot present → loaded (no -data needed).
	booted, source, err := boot("", path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if booted.Len() != ix.Len() {
		t.Fatalf("booted %d series, want %d", booted.Len(), ix.Len())
	}
	if !strings.Contains(source, "snapshot") {
		t.Fatalf("boot source %q does not mention the snapshot", source)
	}
	// Snapshot absent and no data: a startup error, not a silent build.
	if _, _, err := boot("", filepath.Join(t.TempDir(), "missing.snap"), nil, nil); err == nil {
		t.Fatal("boot with missing snapshot and no data did not error")
	}
}

// TestBootAfterAbortedFirstSave: a first save that fails before its
// manifest lands leaves an empty directory at -snapshot; the next boot
// treats it as no snapshot and builds from -data instead of failing. A
// bare single-file snapshot from before snapshots were directories is
// not rebuilt over: boot fails and says to regenerate it.
func TestBootAfterAbortedFirstSave(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	data := messi.RandomWalk(600, 64, 16)
	dataPath := filepath.Join(t.TempDir(), "data.bin")
	if err := messi.WriteSeriesFile(dataPath, data, 64); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		opts := &messi.Options{LeafCapacity: 64, Shards: shards}
		h := serveStatic(t, data, opts, "")
		snap := filepath.Join(t.TempDir(), "snap")
		if err := fault.Arm("persist.manifest.write", fault.Spec{Action: fault.Error}); err != nil {
			t.Fatal(err)
		}
		if rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{Path: snap}); rr.Code != http.StatusInternalServerError {
			t.Fatalf("shards=%d: failed save answered %d, body %s", shards, rr.Code, rr.Body)
		}
		fault.DisarmAll()
		if fi, err := os.Stat(snap); err != nil || !fi.IsDir() {
			t.Fatalf("shards=%d: aborted save left no directory (%v)", shards, err)
		}

		booted, source, err := boot(dataPath, snap, opts, nil)
		if err != nil {
			t.Fatalf("shards=%d: boot over an aborted save: %v", shards, err)
		}
		if !strings.Contains(source, "indexed") || booted.Len() != 600 {
			t.Fatalf("shards=%d: boot source %q with %d series, want a rebuild of 600", shards, source, booted.Len())
		}
		booted.Close()
		if _, _, err := boot("", snap, opts, nil); err == nil {
			t.Fatalf("shards=%d: boot with no snapshot and no -data did not error", shards)
		}
	}

	// A bare member file at -snapshot fails boot even with -data given.
	h := serveStatic(t, data, &messi.Options{LeafCapacity: 64}, "")
	dir := filepath.Join(t.TempDir(), "dir.snap")
	if rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{Path: dir}); rr.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d, body %s", rr.Code, rr.Body)
	}
	member, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(member) != 1 {
		t.Fatalf("snapshot members %v (err %v), want one", member, err)
	}
	raw, err := os.ReadFile(member[0])
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "bare.snap")
	if err := os.WriteFile(bare, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if ix, _, err := boot(dataPath, bare, nil, nil); err == nil {
		ix.Close()
		t.Fatal("boot accepted a bare single-file snapshot")
	} else if !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("boot over a bare snapshot file: %v, want a regenerate error", err)
	}
}

// TestSnapshotEndpointDefaults: empty body uses the -snapshot default;
// no default at all is a 400.
func TestSnapshotEndpointDefaults(t *testing.T) {
	h, _ := newTestHandler(t) // constructed with no default path
	rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{})
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("snapshot without any path: status %d, want 400", rr.Code)
	}

	def := filepath.Join(t.TempDir(), "default.snap")
	hd := serveStatic(t, messi.RandomWalk(900, 64, 13), &messi.Options{LeafCapacity: 64}, def)

	req := httptest.NewRequest(http.MethodPost, "/v1/snapshot", nil)
	rr = httptest.NewRecorder()
	hd.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot to default: status %d, body %s", rr.Code, rr.Body)
	}
	if sr := decode[snapshotResponse](t, rr); sr.Path != def {
		t.Fatalf("snapshot wrote to %q, want default %q", sr.Path, def)
	}
	if _, err := messi.Load(def); err != nil {
		t.Fatalf("default-path snapshot not loadable: %v", err)
	}
}

// TestLiveSnapshotEndpoint: in live mode the endpoint flushes first, so
// freshly appended series are part of the snapshot, and boot resumes from
// it.
func TestLiveSnapshotEndpoint(t *testing.T) {
	h, lix := newLiveTestHandler(t)
	novel := make([]float32, 64)
	for i := range novel {
		novel[i] = 777 + float32(i)
	}
	if rr := postJSON(t, h, "/v1/series", appendRequest{Series: [][]float32{novel}}); rr.Code != http.StatusOK {
		t.Fatalf("append: status %d, body %s", rr.Code, rr.Body)
	}
	path := filepath.Join(t.TempDir(), "live.snap")
	rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{Path: path})
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d, body %s", rr.Code, rr.Body)
	}
	if sr := decode[snapshotResponse](t, rr); sr.Series != lix.Len() {
		t.Fatalf("snapshot response %+v, want %d series", sr, lix.Len())
	}

	booted, source, err := boot("", path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if !strings.Contains(source, "snapshot") {
		t.Fatalf("boot source %q does not mention the snapshot", source)
	}
	res, err := booted.Do(context.Background(), messi.SearchRequest{Query: novel})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Best(); m.Position != 800 || m.Distance != 0 {
		t.Fatalf("appended series missing from live snapshot boot: %+v", m)
	}
}

// TestExitSavesLiveIndex: the server's exit saves a live index to its
// -snapshot path before closing it, so every appended series, the ones
// still in the delta included, is back after a restart. A static index
// is closed without a save.
func TestExitSavesLiveIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.snap")
	opts := &messi.Options{LeafCapacity: 64, SearchWorkers: 4}
	lix, err := messi.BuildLiveFlat(messi.RandomWalk(800, 64, 12), 64, opts, &messi.LiveOptions{RebuildThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := lix.Save(path); err != nil {
		t.Fatal(err)
	}
	appended := messi.RandomWalk(30, 64, 13)
	for i := range 30 {
		if _, err := lix.Append(appended[i*64 : (i+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	closeIndex(lix, true, path)
	if _, err := lix.Append(appended[:64]); err == nil {
		t.Fatal("the index accepted an append after closeIndex")
	}

	booted, err := messi.LoadLive(path, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if booted.Len() != 830 {
		t.Fatalf("restored %d series, want 830", booted.Len())
	}
	for i := range 30 {
		q := appended[i*64 : (i+1)*64]
		if m := exactDo(t, booted, messi.SearchRequest{Query: q}).Best(); m.Position != 800+i || m.Distance != 0 {
			t.Fatalf("appended series %d restored as %+v, want position %d at distance 0", i, m, 800+i)
		}
	}

	static, err := messi.BuildLiveFlat(messi.RandomWalk(100, 64, 14), 64, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	closeIndex(static, false, filepath.Join(dir, "static.snap"))
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("closing a static index left %v (err %v), want only the live snapshot", entries, err)
	}
}

func TestPprofListener(t *testing.T) {
	addr, stop, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles: %.200s", body)
	}
}

// TestDTWEndpoint: the served DTW answer equals the library answer, on
// both the static and the live backend.
func TestDTWEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 55))
	want := exactDo(t, ix, messi.SearchRequest{Query: q, DTW: true, Window: 0.1}).Best()
	rr := postJSON(t, h, "/v1/dtw", dtwRequest{Query: q, Window: 0.1})
	if rr.Code != http.StatusOK {
		t.Fatalf("dtw: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if len(resp.Matches) != 1 || resp.Matches[0].Position != want.Position || resp.Matches[0].Distance != want.Distance {
		t.Fatalf("served %+v, library %+v", resp.Matches, want)
	}

	lh, lix := newLiveTestHandler(t)
	lq := make([]float32, 64)
	ls, err := lix.Series(7)
	if err != nil {
		t.Fatal(err)
	}
	copy(lq, ls)
	lwant := exactDo(t, lix, messi.SearchRequest{Query: lq, DTW: true, Window: 0.1}).Best()
	rr = postJSON(t, lh, "/v1/dtw", dtwRequest{Query: lq, Window: 0.1})
	if rr.Code != http.StatusOK {
		t.Fatalf("live dtw: status %d, body %s", rr.Code, rr.Body)
	}
	lresp := decode[queryResponse](t, rr)
	if len(lresp.Matches) != 1 || lresp.Matches[0].Position != lwant.Position {
		t.Fatalf("live served %+v, library %+v", lresp.Matches, lwant)
	}
}

// TestDTWEndpointBadRequests: out-of-range windows and wrong-length
// queries are 400s (client errors), never 500s.
func TestDTWEndpointBadRequests(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func(t *testing.T) http.Handler
	}{
		{"static", func(t *testing.T) http.Handler { h, _ := newTestHandler(t); return h }},
		{"live", func(t *testing.T) http.Handler { h, _ := newLiveTestHandler(t); return h }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h := mode.mk(t)
			good := make([]float32, 64)
			for _, window := range []float64{-0.5, 1.5, 100} {
				rr := postJSON(t, h, "/v1/dtw", map[string]any{"query": good, "window": window})
				if rr.Code != http.StatusBadRequest {
					t.Errorf("window %v: status %d, want 400 (body %s)", window, rr.Code, rr.Body)
				}
			}
			rr := postJSON(t, h, "/v1/dtw", dtwRequest{Query: make([]float32, 5), Window: 0.1})
			if rr.Code != http.StatusBadRequest {
				t.Errorf("wrong-length query: status %d, want 400 (body %s)", rr.Code, rr.Body)
			}
		})
	}
}

// TestShardedServe: a sharded backend answers identically to an unsharded
// one and /v1/stats exposes the per-shard breakdown.
func TestShardedServe(t *testing.T) {
	data := messi.RandomWalk(1200, 64, 14)
	plain, err := messi.BuildFlat(data, 64, &messi.Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := serveStatic(t, data, &messi.Options{LeafCapacity: 64, Shards: 4}, "")

	q := make([]float32, 64)
	copy(q, mustSeries(t, plain, 321))
	want := exactDo(t, plain, messi.SearchRequest{Query: q}).Best()
	rr := postJSON(t, h, "/v1/query", queryRequest{Query: q})
	if rr.Code != http.StatusOK {
		t.Fatalf("sharded query: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if len(resp.Matches) != 1 || resp.Matches[0].Position != want.Position || resp.Matches[0].Distance != want.Distance {
		t.Fatalf("sharded served %+v, unsharded library %+v", resp.Matches, want)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	srr := httptest.NewRecorder()
	h.ServeHTTP(srr, req)
	st := decode[statsResponse](t, srr)
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("sharded stats %+v", st)
	}
	sum := 0
	for i, ps := range st.PerShard {
		if ps.Shard != i || ps.Series == 0 || ps.Leaves == 0 {
			t.Fatalf("per-shard entry %d: %+v", i, ps)
		}
		sum += ps.Series
	}
	if sum != 1200 || st.Series != 1200 {
		t.Fatalf("per-shard series sum %d, aggregate %d, want 1200", sum, st.Series)
	}
}

// TestSnapshotSizeForDirectory: the snapshot endpoint's bytes field sums
// a sharded snapshot directory's files instead of reporting the
// directory inode size.
func TestSnapshotSizeForDirectory(t *testing.T) {
	h := serveStatic(t, messi.RandomWalk(800, 64, 15), &messi.Options{LeafCapacity: 64, Shards: 2}, "")
	dir := filepath.Join(t.TempDir(), "sized.snapdir")
	rr := postJSON(t, h, "/v1/snapshot", snapshotRequest{Path: dir})
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d, body %s", rr.Code, rr.Body)
	}
	sr := decode[snapshotResponse](t, rr)
	// 800 series × 64 points × 4 bytes alone is ~200 KiB; a directory
	// inode stat would report ~4 KiB.
	if sr.Bytes < 100_000 {
		t.Fatalf("snapshot bytes %d implausibly small for the sharded directory", sr.Bytes)
	}
}

// TestSearchEndpointSpectrum: /v1/search serves the whole quality
// spectrum with the exactness contract in the response, on the static
// and the live backend alike.
func TestSearchEndpointSpectrum(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 99))
	want := exactDo(t, ix, messi.SearchRequest{Query: q}).Best()

	// Default mode is exact and says so.
	rr := postJSON(t, h, "/v1/search", searchRequest{Query: q})
	if rr.Code != http.StatusOK {
		t.Fatalf("search: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if !resp.Exact || resp.EpsilonBound != nil {
		t.Fatalf("exact search response %+v, want exact with no bound", resp)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Position != want.Position {
		t.Fatalf("search served %+v, library %+v", resp.Matches, want)
	}

	// Approximate answers are flagged inexact and never better than exact.
	rr = postJSON(t, h, "/v1/search", searchRequest{Query: q, Mode: "approx"})
	if rr.Code != http.StatusOK {
		t.Fatalf("approx search: status %d, body %s", rr.Code, rr.Body)
	}
	resp = decode[queryResponse](t, rr)
	if resp.Exact {
		t.Fatal("approx answer claimed exactness")
	}
	if len(resp.Matches) != 1 || resp.Matches[0].Distance < want.Distance-1e-9 {
		t.Fatalf("approx answer %+v beats the exact one %+v", resp.Matches, want)
	}

	// An ε query over a self-match proves exactness (distance 0).
	rr = postJSON(t, h, "/v1/search", searchRequest{Query: q, Mode: "epsilon", Epsilon: 0.05})
	if rr.Code != http.StatusOK {
		t.Fatalf("epsilon search: status %d, body %s", rr.Code, rr.Body)
	}
	resp = decode[queryResponse](t, rr)
	if len(resp.Matches) != 1 || resp.Matches[0].Position != want.Position {
		t.Fatalf("epsilon search served %+v, library %+v", resp.Matches, want)
	}
	if !resp.Exact && (resp.EpsilonBound == nil || *resp.EpsilonBound > 0.05) {
		t.Fatalf("epsilon response %+v proves no usable bound", resp)
	}

	// A generous deadline completes exactly.
	rr = postJSON(t, h, "/v1/search", searchRequest{Query: q, Mode: "deadline", DeadlineMS: 60000})
	if rr.Code != http.StatusOK {
		t.Fatalf("deadline search: status %d, body %s", rr.Code, rr.Body)
	}
	resp = decode[queryResponse](t, rr)
	if !resp.Exact || resp.Matches[0].Position != want.Position {
		t.Fatalf("deadline search with a generous budget: %+v, want exact %+v", resp, want)
	}

	// The live backend speaks the same spectrum.
	lh, lix := newLiveTestHandler(t)
	lq := make([]float32, 64)
	ls, err := lix.Series(11)
	if err != nil {
		t.Fatal(err)
	}
	copy(lq, ls)
	rr = postJSON(t, lh, "/v1/search", searchRequest{Query: lq, Mode: "epsilon", Epsilon: 0.1})
	if rr.Code != http.StatusOK {
		t.Fatalf("live epsilon search: status %d, body %s", rr.Code, rr.Body)
	}
	resp = decode[queryResponse](t, rr)
	if len(resp.Matches) != 1 || resp.Matches[0].Position != 11 || resp.Matches[0].Distance != 0 {
		t.Fatalf("live epsilon self-query: %+v", resp.Matches)
	}
}

// TestKNNEndpoint: /v1/knn requires k and returns sorted matches.
func TestKNNEndpoint(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 7))

	if rr := postJSON(t, h, "/v1/knn", searchRequest{Query: q}); rr.Code != http.StatusBadRequest {
		t.Fatalf("knn without k: status %d, want 400", rr.Code)
	}

	want := exactDo(t, ix, messi.SearchRequest{Query: q, K: 3}).Matches
	rr := postJSON(t, h, "/v1/knn", searchRequest{Query: q, K: 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("knn: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if !resp.Exact || len(resp.Matches) != len(want) {
		t.Fatalf("knn response %+v, want %d exact matches", resp, len(want))
	}
	for i, m := range resp.Matches {
		if m.Position != want[i].Position || m.Distance != want[i].Distance {
			t.Fatalf("knn match %d: served %+v, library %+v", i, m, want[i])
		}
	}
}

// TestSearchEndpointBadRequests: typed sentinel errors from the library
// surface as 400s on both backends — the table of the root package's
// TestSentinelErrors, over HTTP.
func TestSearchEndpointBadRequests(t *testing.T) {
	static, _ := newTestHandler(t)
	live, _ := newLiveTestHandler(t)
	good := make([]float32, 64)
	cases := []struct {
		name string
		req  searchRequest
	}{
		{"unknown mode", searchRequest{Query: good, Mode: "psychic"}},
		{"negative k", searchRequest{Query: good, K: -1}},
		{"negative epsilon", searchRequest{Query: good, Mode: "epsilon", Epsilon: -0.5}},
		{"negative deadline", searchRequest{Query: good, Mode: "deadline", DeadlineMS: -5}},
		// 18446744073710 ms wraps to a 448 µs time.Duration.
		{"overflowing deadline", searchRequest{Query: good, Mode: "deadline", DeadlineMS: 18446744073710}},
		{"wrong length", searchRequest{Query: make([]float32, 5)}},
		{"bad dtw window", searchRequest{Query: good, DTW: true, Window: 3}},
		{"negative dtw window", searchRequest{Query: good, DTW: true, Window: -0.5}},
		{"dtw knn", searchRequest{Query: good, DTW: true, Window: 0.1, K: 4}},
	}
	for name, h := range map[string]http.Handler{"static": static, "live": live} {
		for _, tc := range cases {
			if rr := postJSON(t, h, "/v1/search", tc.req); rr.Code != http.StatusBadRequest {
				t.Errorf("%s/%s: status %d, want 400 (body %s)", name, tc.name, rr.Code, rr.Body)
			}
		}
	}
}

// TestBatchEndpointFailures: /v1/query/batch classifies a failure the way
// /v1/search does — the client's fault is a 400, a query that panicked is a
// 500, a client that went away is a 503 — and runs under the request's
// context, so nothing is searched once that context is done.
func TestBatchEndpointFailures(t *testing.T) {
	h, _ := newTestHandler(t)
	good := make([]float32, 64)
	post := func(ctx context.Context, body batchRequest) *httptest.ResponseRecorder {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/query/batch", bytes.NewReader(buf)).WithContext(ctx))
		return rr
	}

	rr := post(context.Background(), batchRequest{Queries: [][]float32{good, make([]float32, 5)}})
	if rr.Code != http.StatusBadRequest {
		t.Errorf("wrong-length row: status %d, want 400 (body %s)", rr.Code, rr.Body)
	}

	t.Cleanup(fault.DisarmAll)
	if err := fault.Arm("engine.unit", fault.Spec{Action: fault.Panic}); err != nil {
		t.Fatal(err)
	}
	rr = post(context.Background(), batchRequest{Queries: [][]float32{good, good}})
	if rr.Code != http.StatusInternalServerError {
		t.Errorf("panicked query: status %d, want 500 (body %s)", rr.Code, rr.Body)
	}
	if rr = post(context.Background(), batchRequest{Queries: [][]float32{good}}); rr.Code != http.StatusOK {
		t.Errorf("batch after the panic: status %d, want 200 (body %s)", rr.Code, rr.Body)
	}

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	rr = post(gone, batchRequest{Queries: [][]float32{good, good, good}})
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled client: status %d, want 503 (body %s)", rr.Code, rr.Body)
	}
}

// TestDTWEndpointModes: /v1/dtw accepts the quality fields too.
func TestDTWEndpointModes(t *testing.T) {
	h, ix := newTestHandler(t)
	q := make([]float32, 64)
	copy(q, mustSeries(t, ix, 31))
	rr := postJSON(t, h, "/v1/dtw", searchRequest{Query: q, Window: 0.1, Mode: "approx"})
	if rr.Code != http.StatusOK {
		t.Fatalf("approx dtw: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if resp.Exact {
		t.Fatal("approx DTW answer claimed exactness")
	}
	if len(resp.Matches) != 1 {
		t.Fatalf("approx dtw matches: %+v", resp.Matches)
	}
}

// TestMatchWireKeys pins the wire form of an answer on /v1/search and
// /v1/query/batch: every match is an object with exactly the keys
// "position" and "distance", and a list with no match encodes as [],
// never null.
func TestMatchWireKeys(t *testing.T) {
	h, ix := newTestHandler(t)
	q, err := ix.Series(7)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches := func(where string, raw json.RawMessage, want int) {
		t.Helper()
		var ms []map[string]json.RawMessage
		if err := json.Unmarshal(raw, &ms); err != nil {
			t.Fatalf("%s: decoding %s: %v", where, raw, err)
		}
		if len(ms) != want {
			t.Fatalf("%s: %d matches, want %d: %s", where, len(ms), want, raw)
		}
		for _, m := range ms {
			_, hasPos := m["position"]
			_, hasDist := m["distance"]
			if len(m) != 2 || !hasPos || !hasDist {
				t.Fatalf("%s: match keys %s, want exactly position and distance", where, raw)
			}
		}
	}

	rr := postJSON(t, h, "/v1/search", searchRequest{Query: q, K: 3})
	if rr.Code != http.StatusOK {
		t.Fatalf("search: status %d, body %s", rr.Code, rr.Body)
	}
	search := decode[struct {
		Matches json.RawMessage `json:"matches"`
	}](t, rr)
	checkMatches("/v1/search", search.Matches, 3)

	rr = postJSON(t, h, "/v1/query/batch", batchRequest{Queries: [][]float32{q, q}})
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", rr.Code, rr.Body)
	}
	batch := decode[struct {
		Results []json.RawMessage `json:"results"`
	}](t, rr)
	if len(batch.Results) != 2 {
		t.Fatalf("batch: %d results, want 2", len(batch.Results))
	}
	for _, raw := range batch.Results {
		checkMatches("/v1/query/batch", raw, 1)
	}

	// The library never returns a nil Matches, so an answer with no match
	// is an empty list on the wire.
	for where, v := range map[string]any{
		"/v1/search":      toQueryResponse(messi.Result{Matches: []messi.Match{}}),
		"/v1/query/batch": batchResponse{Results: [][]messi.Match{{}}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(body), "null") || !strings.Contains(string(body), "[]") {
			t.Fatalf("%s: empty answer encodes as %s, want an empty list", where, body)
		}
	}
}
