package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/scan"
	"repro/internal/series"
	"repro/internal/vector"
)

// op is one pre-marshalled request of a workload's fixed op list.
type op struct {
	path   string
	body   []byte
	append bool      // POST /v1/series; otherwise a query
	query  []float32 // the query (queries only)
	first  int       // appends: the position the batch must land at
	// visible is how many series the index holds when a query runs: the
	// base plus every batch appended before it in the op list.
	visible int
	check   bool // queries: also compare with a brute-force scan
}

// sample is what one executed op returned.
type sample struct {
	latency time.Duration
	status  int
	err     error
	reqID   string
	sent    time.Time
	reply   reply
}

// reply is the union of the response bodies the benchmark reads.
type reply struct {
	Matches []struct {
		Position int     `json:"position"`
		Distance float64 `json:"distance"`
	} `json:"matches"`
	Exact bool `json:"exact"`
	Trace *struct {
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		Phases         []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
		Counters map[string]int64 `json:"counters"`
	} `json:"trace"`
	FirstPosition *int `json:"first_position"`
}

// searchBody marshals one query request. window > 0 selects DTW.
func searchBody(q []float32, window float64, trace bool) []byte {
	req := map[string]any{"query": q}
	if window > 0 {
		req["window"] = window
	}
	if trace {
		req["trace"] = true
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // finite float32s always marshal
	}
	return b
}

func appendBody(rows [][]float32) []byte {
	b, err := json.Marshal(map[string]any{"series": rows})
	if err != nil {
		panic(err)
	}
	return b
}

// newClient returns a keep-alive HTTP client holding at most conns
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// runOps executes ops in a closed loop over conns connections: each
// connection claims the next op only after its previous reply has been
// read in full. It returns one sample per op and the wall time of the
// whole list.
func runOps(ctx context.Context, client *http.Client, base string, ops []op, conns int) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				samples[i] = do(ctx, client, base, &ops[i])
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func do(ctx context.Context, client *http.Client, base string, o *op) sample {
	s := sample{sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(s.sent)
	s.status = resp.StatusCode
	s.reqID = resp.Header.Get("X-Request-Id")
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode/100 == 2 {
		s.err = json.Unmarshal(body, &s.reply)
	}
	return s
}

// corpus is everything the server may have indexed: the base data file
// plus the rows the op list appends, in append order.
type corpus struct {
	base     *series.Collection
	appended *series.Collection // nil for static workloads
	window   int                // DTW band in points; 0 means Euclidean
}

func (c *corpus) at(pos int) []float32 {
	if pos < c.base.Count() {
		return c.base.At(pos)
	}
	return c.appended.At(pos - c.base.Count())
}

// distance is the true distance between q and x under the workload's
// measure, as the server reports it (not squared).
func (c *corpus) distance(q, x []float32) float64 {
	if c.window > 0 {
		return math.Sqrt(dtw.Distance(q, x, c.window, math.Inf(1)))
	}
	return math.Sqrt(vector.SquaredEuclidean(q, x))
}

// relTol is the relative distance tolerance of the correctness gate: the
// server sums in a different order than the checker.
const relTol = 1e-4

// closerExists brute-force scans the first visible series for one whose
// squared distance to q beats dist² by more than the tolerance. The scan
// starts from that bound, so it abandons most candidates early; it still
// visits every series, which is what makes it ground truth.
func (c *corpus) closerExists(q []float32, dist float64, visible int) (bool, error) {
	bound := dist * dist * (1 - 2*relTol)
	parts := []*series.Collection{c.base}
	if extra := visible - c.base.Count(); extra > 0 {
		part, err := series.NewCollection(c.appended.Data[:extra*c.appended.Length], c.appended.Length)
		if err != nil {
			return false, err
		}
		parts = append(parts, part)
	}
	for _, part := range parts {
		var m core.Match
		var err error
		if c.window > 0 {
			m, err = scan.SearchDTWBounded(part, q, c.window, 2, bound, nil)
		} else {
			m, err = scan.Search1NNBounded(part, q, 2, bound, nil)
		}
		if err != nil {
			return false, err
		}
		if m.Position >= 0 {
			return true, nil
		}
	}
	return false, nil
}

// verify is the correctness gate. An op fails on a transport error, a
// non-2xx status, an undecodable body, exact:false, a reported distance
// that is not the true distance to the reported position, an append that
// landed elsewhere than the op list says, or — on the ops marked check — a
// brute-force scan finding a closer series. It returns the failure count
// and a description of the first few failures.
func verify(ops []op, samples []sample, c *corpus) (failed int, why []string, err error) {
	fail := func(i int, format string, a ...any) {
		failed++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf("op %d %s: ", i, ops[i].path)+fmt.Sprintf(format, a...))
		}
	}
	for i := range ops {
		o, s := &ops[i], &samples[i]
		switch {
		case s.err != nil:
			fail(i, "%v", s.err)
		case s.status/100 != 2:
			fail(i, "status %d", s.status)
		case o.append:
			if s.reply.FirstPosition == nil || *s.reply.FirstPosition != o.first {
				fail(i, "batch landed at %v, want %d", s.reply.FirstPosition, o.first)
			}
		case !s.reply.Exact:
			fail(i, "exact:false on an exact request")
		case len(s.reply.Matches) != 1:
			fail(i, "%d matches, want 1", len(s.reply.Matches))
		default:
			m := s.reply.Matches[0]
			if m.Position < 0 || m.Position >= o.visible {
				fail(i, "position %d outside [0,%d)", m.Position, o.visible)
				continue
			}
			if want := c.distance(o.query, c.at(m.Position)); math.Abs(m.Distance-want) > relTol*math.Max(want, 1) {
				fail(i, "distance %v, but position %d is at %v", m.Distance, m.Position, want)
				continue
			}
			if o.check {
				closer, err := c.closerExists(o.query, m.Distance, o.visible)
				if err != nil {
					return failed, why, err
				}
				if closer {
					fail(i, "brute force found a series closer than %v", m.Distance)
				}
			}
		}
	}
	return failed, why, nil
}
