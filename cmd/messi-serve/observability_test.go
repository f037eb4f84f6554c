package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	messi "repro"
	"repro/internal/isax"
	"repro/internal/paa"
)

// newObservableServer builds a server the way run() does: one registry
// shared by the index, its engine and the HTTP layer.
func newObservableServer(t *testing.T, slowQuery time.Duration) (*server, *messi.LiveIndex) {
	t.Helper()
	reg := messi.NewMetrics()
	ix, err := messi.BuildLiveFlat(messi.RandomWalk(1200, 64, 17), 64, &messi.Options{LeafCapacity: 64},
		&messi.LiveOptions{Engine: messi.EngineOptions{PoolWorkers: 4, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	s := newServer(reg, false, "", slowQuery)
	s.install(ix)
	return s, ix
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

// Exposition format 0.0.4: every line is a HELP comment, a TYPE comment,
// or a sample with an optional label set and a float value.
var (
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)
)

// scrape fetches /metrics, validates every line of the exposition, and
// returns the per-sample values keyed by the full sample name (with
// labels).
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rr := getPath(t, h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples := make(map[string]float64)
	for i, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !helpLine.MatchString(line) {
				t.Fatalf("line %d: malformed HELP line %q", i+1, line)
			}
		case strings.HasPrefix(line, "#"):
			if !typeLine.MatchString(line) {
				t.Fatalf("line %d: malformed TYPE line %q", i+1, line)
			}
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample line %q", i+1, line)
			}
			name := line[:strings.LastIndexByte(line, ' ')]
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil && m[2] != "NaN" && m[2] != "+Inf" && m[2] != "-Inf" {
				t.Fatalf("line %d: unparseable value in %q: %v", i+1, line, err)
			}
			samples[name] = v
		}
	}
	return samples
}

// TestMetricsExposition: /metrics serves valid Prometheus text covering
// the engine and HTTP instruments, and counters are monotone across two
// scrapes with traffic in between.
func TestMetricsExposition(t *testing.T) {
	s, ix := newObservableServer(t, 0)
	query, err := ix.Series(3)
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		rr := postJSON(t, s, "/v1/search", searchRequest{Query: query})
		if rr.Code != http.StatusOK {
			t.Fatalf("search: status %d, body %s", rr.Code, rr.Body)
		}
	}
	search()

	first := scrape(t, s)
	for _, want := range []string{
		`messi_queries_admitted_total`,
		`messi_query_duration_seconds_count{mode="exact"}`,
		`messi_query_duration_seconds_sum{mode="exact"}`,
		`messi_lower_bound_calcs_total`,
		`messi_real_dist_calcs_total`,
		`messi_admission_queue_depth`,
		`messi_engine_pool_workers`,
		`messi_http_request_seconds_count{path="/v1/search"}`,
		`go_goroutines`,
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("scrape is missing sample %q", want)
		}
	}
	if got := first[`messi_query_duration_seconds_count{mode="exact"}`]; got != 1 {
		t.Errorf("exact query count = %v after one query, want 1", got)
	}
	// The cumulative histogram buckets must be monotone non-decreasing
	// and end at the _count in the +Inf bucket.
	prev := -1.0
	for name, v := range first {
		if strings.HasPrefix(name, `messi_query_duration_seconds_bucket{mode="exact"`) && strings.Contains(name, `le="+Inf"`) {
			if v != first[`messi_query_duration_seconds_count{mode="exact"}`] {
				t.Errorf("+Inf bucket %v != count", v)
			}
		}
		_ = prev
	}

	search()
	search()
	second := scrape(t, s)
	for name, before := range first {
		if !strings.HasSuffix(strings.SplitN(name, "{", 2)[0], "_total") &&
			!strings.Contains(name, "_count") && !strings.Contains(name, "_bucket") {
			continue // gauges may move either way
		}
		if strings.HasPrefix(name, "go_") {
			continue // runtime totals are not under test
		}
		after, ok := second[name]
		if !ok {
			t.Errorf("counter %q disappeared between scrapes", name)
			continue
		}
		if after < before {
			t.Errorf("counter %q went backwards: %v → %v", name, before, after)
		}
	}
	if got := second[`messi_query_duration_seconds_count{mode="exact"}`]; got != 3 {
		t.Errorf("exact query count = %v after three queries, want 3", got)
	}
}

// TestReadiness: before an index is installed every endpoint (including
// the health probes) answers 503 — except /metrics, which must be
// scrapeable during a long boot; after install the server is ready.
func TestReadiness(t *testing.T) {
	s := newServer(messi.NewMetrics(), false, "", 0)
	for _, path := range []string{"/healthz", "/readyz", "/v1/stats"} {
		if rr := getPath(t, s, path); rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s before install: status %d, want 503", path, rr.Code)
		}
	}
	if rr := postJSON(t, s, "/v1/search", searchRequest{Query: make([]float32, 64)}); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/v1/search before install: status %d, want 503", rr.Code)
	}
	if rr := getPath(t, s, "/metrics"); rr.Code != http.StatusOK {
		t.Errorf("/metrics before install: status %d, want 200", rr.Code)
	}

	ix, err := messi.BuildLiveFlat(messi.RandomWalk(300, 64, 5), 64, &messi.Options{LeafCapacity: 64},
		&messi.LiveOptions{Engine: messi.EngineOptions{PoolWorkers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	s.install(ix)

	for _, path := range []string{"/healthz", "/readyz"} {
		rr := getPath(t, s, path)
		if rr.Code != http.StatusOK {
			t.Errorf("%s after install: status %d, want 200", path, rr.Code)
		}
		if !strings.Contains(rr.Body.String(), "ok") {
			t.Errorf("%s body %q, want ok", path, rr.Body)
		}
		if rr.Header().Get("X-Request-Id") == "" {
			t.Errorf("%s: no X-Request-Id header", path)
		}
	}
}

// TestTraceFlag: "trace": true returns phase timings and operation
// counts inline; "counters": true returns only the counts; a plain
// request returns neither.
func TestTraceFlag(t *testing.T) {
	s, ix := newObservableServer(t, 0)
	query, err := ix.Series(7)
	if err != nil {
		t.Fatal(err)
	}

	rr := postJSON(t, s, "/v1/search", searchRequest{Query: query, Trace: true})
	if rr.Code != http.StatusOK {
		t.Fatalf("trace search: status %d, body %s", rr.Code, rr.Body)
	}
	resp := decode[queryResponse](t, rr)
	if resp.Trace == nil {
		t.Fatal("trace:true returned no trace")
	}
	if len(resp.Trace.Phases) != 5 {
		t.Fatalf("trace has %d phases, want the 5 of Figure 13", len(resp.Trace.Phases))
	}
	for _, p := range resp.Trace.Phases {
		if p.Name == "" {
			t.Fatal("trace phase with empty name")
		}
		if p.Seconds < 0 {
			t.Fatalf("trace phase %q has negative time %v", p.Name, p.Seconds)
		}
	}
	if resp.Trace.ElapsedSeconds <= 0 {
		t.Fatalf("trace elapsed_seconds = %v, want > 0", resp.Trace.ElapsedSeconds)
	}
	if resp.Trace.Counters.RealDistances == 0 {
		t.Fatal("trace counters report zero real distance computations")
	}

	rr = postJSON(t, s, "/v1/search", searchRequest{Query: query, Counters: true})
	resp = decode[queryResponse](t, rr)
	if resp.Counters == nil || resp.Counters.RealDistances == 0 {
		t.Fatalf("counters:true returned %+v", resp.Counters)
	}
	if resp.Trace != nil {
		t.Fatal("counters:true returned a trace")
	}

	rr = postJSON(t, s, "/v1/search", searchRequest{Query: query})
	resp = decode[queryResponse](t, rr)
	if resp.Counters != nil || resp.Trace != nil {
		t.Fatal("plain request returned counters or trace")
	}
}

// TestStatsServerFields: /v1/stats reports uptime, queries served, and
// the effective admission-gate configuration.
func TestStatsServerFields(t *testing.T) {
	s, ix := newObservableServer(t, 0)
	query, err := ix.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, s, "/v1/search", searchRequest{Query: query})
	postJSON(t, s, "/v1/query/batch", batchRequest{Queries: [][]float32{query, query}})

	rr := getPath(t, s, "/v1/stats")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rr.Code)
	}
	st := decode[statsResponse](t, rr)
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.QueriesServed != 3 {
		t.Errorf("queries_served = %d, want 3 (one search + two batch)", st.QueriesServed)
	}
	if st.Admission == nil {
		t.Fatal("stats report no admission configuration")
	}
	if st.Admission.PoolWorkers != 4 {
		t.Errorf("admission pool_workers = %d, want 4", st.Admission.PoolWorkers)
	}
	if st.Admission.Queues < 1 {
		t.Errorf("admission queues = %d, want >= 1", st.Admission.Queues)
	}
}

// TestScanPlansMetric: an adversarial query — a member with every other
// point negated, whose segment means, the PAA summary the index prunes
// with, collapse toward zero, so no lower bound prunes — makes every
// shard scan instead of using its tree, so it moves
// messi_scan_plans_total and its "scan_plans" counter by the shard count; a
// member query keeps the trees and moves neither. (White noise is not
// enough: on this 3 000-series collection it leaves the plan a sampled
// share of 0.49, under the 0.5 crossover.)
func TestScanPlansMetric(t *testing.T) {
	data := messi.RandomWalk(3000, 64, 17)
	adversarial := make([]float32, 64)
	for i, v := range data[42*64 : 43*64] {
		if i%2 == 1 {
			v = -v
		}
		adversarial[i] = v
	}
	for _, shards := range []int{1, 3} {
		reg := messi.NewMetrics()
		ix, err := messi.BuildLiveFlat(data, 64,
			&messi.Options{LeafCapacity: 64, Shards: shards},
			&messi.LiveOptions{Engine: messi.EngineOptions{PoolWorkers: 2, Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		s := newServer(reg, false, "", 0)
		s.install(ix)
		member, err := ix.Series(42)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			query []float32
			scans int64
		}{{"member", member, 0}, {"adversarial", adversarial, int64(shards)}} {
			before := scrape(t, s)["messi_scan_plans_total"]
			rr := postJSON(t, s, "/v1/search", searchRequest{Query: tc.query, Counters: true})
			if rr.Code != http.StatusOK {
				t.Fatalf("shards=%d %s: status %d, body %s", shards, tc.name, rr.Code, rr.Body)
			}
			resp := decode[queryResponse](t, rr)
			if resp.Counters == nil || resp.Counters.ScanPlans != tc.scans {
				t.Fatalf("shards=%d %s: counters %+v, want scan_plans %d; %.3f of the collection has a lower bound under the answer's distance",
					shards, tc.name, resp.Counters, tc.scans, boundShare(t, data, tc.query, resp.Matches[0].Distance))
			}
			if moved := scrape(t, s)["messi_scan_plans_total"] - before; moved != float64(tc.scans) {
				t.Fatalf("shards=%d %s: messi_scan_plans_total moved by %v, want %d", shards, tc.name, moved, tc.scans)
			}
		}
	}
}

// boundShare is the share of the 64-point series in data whose
// full-cardinality iSAX lower bound, at the default 16 segments, is below
// the distance dist from query: what the plan's sample would leave if the
// seed had found the answer, and so a floor under the share it samples.
func boundShare(t *testing.T, data, query []float32, dist float64) float64 {
	t.Helper()
	schema, err := isax.NewSchema(64, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	qpaa := paa.Transform(query, 16, nil)
	n, survivors := len(data)/64, 0
	for i := 0; i < n; i++ {
		word := schema.WordFromPAA(paa.Transform(data[i*64:(i+1)*64], 16, nil), nil)
		if schema.MinDistPAAWord(qpaa, word) < dist*dist {
			survivors++
		}
	}
	return float64(survivors) / float64(n)
}

// counterKeys are the wire keys of a "counters" object, in order.
var counterKeys = []string{"nodes_visited", "lower_bounds", "real_distances",
	"leaves_inserted", "leaves_pruned", "bsf_updates", "scan_plans", "workers", "yields"}

// objectKeys returns the keys of the JSON object raw, in document order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%s: not a JSON object (%v)", raw, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestCounterWireKeys pins the nine count keys, in order, of both the
// "counters": true and the "trace": true responses.
func TestCounterWireKeys(t *testing.T) {
	s, ix := newObservableServer(t, 0)
	query, err := ix.Series(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req   searchRequest
		field func(map[string]json.RawMessage) json.RawMessage
	}{
		{searchRequest{Query: query, Counters: true},
			func(body map[string]json.RawMessage) json.RawMessage { return body["counters"] }},
		{searchRequest{Query: query, Trace: true},
			func(body map[string]json.RawMessage) json.RawMessage {
				var tr map[string]json.RawMessage
				if err := json.Unmarshal(body["trace"], &tr); err != nil {
					t.Fatal(err)
				}
				return tr["counters"]
			}},
	} {
		rr := postJSON(t, s, "/v1/search", tc.req)
		if rr.Code != http.StatusOK {
			t.Fatalf("%+v: status %d, body %s", tc.req, rr.Code, rr.Body)
		}
		body := decode[map[string]json.RawMessage](t, rr)
		if got := objectKeys(t, tc.field(body)); !slices.Equal(got, counterKeys) {
			t.Fatalf("counters:%v trace:%v: keys %v, want %v", tc.req.Counters, tc.req.Trace, got, counterKeys)
		}
	}
}

// TestCountMetricsMatchQueryCounters: the cumulative messi_*_total
// counters and the per-query counts are one measurement. Over a mixed
// batch on a live index with a non-empty delta — tree plan, scan plan,
// k-NN, DTW and approximate — each of the seven counters moves by exactly
// the sum of the batch's per-query counts.
func TestCountMetricsMatchQueryCounters(t *testing.T) {
	s, ix := newObservableServer(t, 0)
	flat := messi.RandomWalk(50, 64, 99)
	var rows [][]float32
	for i := 0; i < len(flat); i += 64 {
		rows = append(rows, flat[i:i+64])
	}
	if _, err := ix.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if d := ix.Stats().DeltaSeries; d == 0 {
		t.Fatal("the delta is empty")
	}
	member, err := ix.Series(42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ood := make([]float32, 64)
	for i := range ood {
		ood[i] = float32(rng.NormFloat64())
	}
	before := scrape(t, s)
	var sum messi.QueryCounters
	for _, tc := range []struct {
		name string
		req  searchRequest
		scan bool // the request takes the scan plan
	}{
		{"tree plan", searchRequest{Query: member}, false},
		{"scan plan", searchRequest{Query: ood}, true},
		{"k-NN", searchRequest{Query: member, K: 5}, false},
		{"DTW", searchRequest{Query: member, DTW: true, Window: 0.1}, false},
		{"approx", searchRequest{Query: ood, Mode: "approx"}, false},
	} {
		tc.req.Counters = true
		rr := postJSON(t, s, "/v1/search", tc.req)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.name, rr.Code, rr.Body)
		}
		c := decode[queryResponse](t, rr).Counters
		if c == nil || c.RealDistances == 0 {
			t.Fatalf("%s: counters %+v", tc.name, c)
		}
		if scanned := c.ScanPlans == 1; scanned != tc.scan {
			t.Fatalf("%s: scan_plans %d, want the scan plan %v", tc.name, c.ScanPlans, tc.scan)
		}
		sum.NodesVisited += c.NodesVisited
		sum.LowerBounds += c.LowerBounds
		sum.RealDistances += c.RealDistances
		sum.LeavesInserted += c.LeavesInserted
		sum.LeavesPruned += c.LeavesPruned
		sum.BSFUpdates += c.BSFUpdates
		sum.ScanPlans += c.ScanPlans
	}
	after := scrape(t, s)
	for name, want := range map[string]int64{
		"messi_nodes_visited_total":     sum.NodesVisited,
		"messi_lower_bound_calcs_total": sum.LowerBounds,
		"messi_real_dist_calcs_total":   sum.RealDistances,
		"messi_leaves_inserted_total":   sum.LeavesInserted,
		"messi_leaves_pruned_total":     sum.LeavesPruned,
		"messi_bsf_updates_total":       sum.BSFUpdates,
		"messi_scan_plans_total":        sum.ScanPlans,
	} {
		if moved := after[name] - before[name]; moved != float64(want) {
			t.Errorf("%s moved by %v, the queries counted %d", name, moved, want)
		}
	}
}

// TestReadyLogNamesKernel: the boot's "index ready" line names the
// Euclidean distance kernel and the leaf filter in use, so a slow scan on a
// CPU without AVX (or a slow leaf scan without AVX-512 VBMI) is explained
// from the log.
func TestReadyLogNamesKernel(t *testing.T) {
	_, ix := newObservableServer(t, 0)
	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(old)

	logReady(ix, "data.bin", false, 0, "")
	logged := buf.String()
	if !strings.Contains(logged, "index ready") || !regexp.MustCompile(`distance_kernel=(avx|go)\b`).MatchString(logged) {
		t.Fatalf("ready log %q lacks distance_kernel=avx|go", logged)
	}
	if !regexp.MustCompile(`leaf_filter=(avx512vbmi|go)\b`).MatchString(logged) {
		t.Fatalf("ready log %q lacks leaf_filter=avx512vbmi|go", logged)
	}
}

// TestSlowQueryLog: with -slow-query set, a query over the threshold is
// logged with its request ID and trace keys, and the response still
// omits the trace the client never asked for.
func TestSlowQueryLog(t *testing.T) {
	s, ix := newObservableServer(t, time.Nanosecond) // everything is slow
	query, err := ix.Series(1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(old)

	rr := postJSON(t, s, "/v1/search", searchRequest{Query: query})
	if rr.Code != http.StatusOK {
		t.Fatalf("search: status %d", rr.Code)
	}
	if resp := decode[queryResponse](t, rr); resp.Trace != nil {
		t.Fatal("forced slow-query trace leaked into the response")
	}
	id := rr.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header")
	}
	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query log line in %q", logged)
	}
	for _, key := range []string{"id=" + id, "path=/v1/search", "mode=exact", "real_distances=", "distance_calculation="} {
		if !strings.Contains(logged, key) {
			t.Errorf("slow-query log %q is missing %q", logged, key)
		}
	}
}
