package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// get issues a GET and returns the response if its status is 200; the
// caller closes the body.
func get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp, nil
}

// scrape reads the server's /metrics into a map keyed by the full series
// name, labels included, exactly as exposed.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	resp, err := get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// tracer watches the server from outside during a traced window: one
// /metrics scrape before and after, and a 4 Hz poll of the gauges whose
// value in between matters.
type tracer struct {
	base          string
	before, after map[string]float64

	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Filled by the poller.
	polls         int
	queueDepthMax float64
	deltaSum      float64
}

func startTracer(ctx context.Context, base string) (*tracer, error) {
	before, err := scrape(ctx, base)
	if err != nil {
		return nil, err
	}
	pctx, cancel := context.WithCancel(ctx)
	t := &tracer{base: base, before: before, cancel: cancel}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pctx.Done():
				return
			case <-tick.C:
			}
			m, err := scrape(pctx, base)
			if err != nil {
				continue // a missed poll only thins the sample
			}
			t.polls++
			t.queueDepthMax = max(t.queueDepthMax, m["messi_admission_queue_depth"])
			t.deltaSum += m["messi_live_delta_series"]
		}
	}()
	return t, nil
}

// stop ends the poll and takes the closing scrape.
func (t *tracer) stop(ctx context.Context) error {
	t.cancel()
	t.wg.Wait()
	var err error
	t.after, err = scrape(ctx, t.base)
	return err
}

// delta is how much a counter (or a histogram's _sum/_count) grew over the
// traced window.
func (t *tracer) delta(name string) float64 { return t.after[name] - t.before[name] }

// serverStats is the part of GET /v1/stats the benchmark reports.
type serverStats struct {
	Leaves      int `json:"leaves"`
	MaxDepth    int `json:"max_depth"`
	MaxLeafFill int `json:"max_leaf_fill"`
}

func getStats(ctx context.Context, base string) (*serverStats, error) {
	resp, err := get(ctx, base+"/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}

// span is one timed interval of the traced pass. Spans of one request share
// its X-Request-Id; parent names the span that caused this one.
type span struct {
	Request string  `json:"request"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"` // since the first op was sent
	DurMS   float64 `json:"dur_ms"`
}

// writeSpans writes the traced pass as dir/trace-<workload>.json: per op
// the client's round trip, the server-reported search inside it, and the
// five Figure-13 phases inside that. Only the round trip has a measured
// start; the server reports durations, so children carry their parent's
// start and phase durations are worker time, which may sum past the
// parent's wall time.
func writeSpans(dir, workload string, ops []op, samples []sample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans []span
	origin := samples[0].sent
	for i, s := range samples {
		start := float64(s.sent.Sub(origin)) / float64(time.Millisecond)
		spans = append(spans, span{Request: s.reqID, Name: "http.roundtrip " + ops[i].path,
			StartMS: start, DurMS: float64(s.latency) / float64(time.Millisecond)})
		if tr := s.reply.Trace; tr != nil {
			spans = append(spans, span{Request: s.reqID, Name: "server.search", Parent: "http.roundtrip " + ops[i].path,
				StartMS: start, DurMS: tr.ElapsedSeconds * 1e3})
			for _, p := range tr.Phases {
				spans = append(spans, span{Request: s.reqID, Name: "core." + p.Name, Parent: "server.search",
					StartMS: start, DurMS: p.Seconds * 1e3})
			}
		}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
