package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/workload"
)

// TestVerifyCountsFailures points the driver at a stub server that answers
// correctly once and then wrongly in every way the gate knows, and asserts
// that each wrong answer is counted as a failed op.
func TestVerifyCountsFailures(t *testing.T) {
	data, err := dataset.Generate(dataset.RandomWalk, 300, seriesLen, 7)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.Generate(data, workload.TierNoise, 6, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct{ pos, second int }
	truth := map[string]answer{} // request body → nearest and second-nearest position
	var ops []op
	for i := 0; i < set.Queries.Count(); i++ {
		q := set.Queries.At(i)
		two, err := scan.SearchKNN(data, q, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := op{path: "/v1/search", body: searchBody(q, 0, false), query: q, visible: data.Count(), check: true}
		truth[string(o.body)] = answer{two[0].Position, two[1].Position}
		ops = append(ops, o)
	}
	c := &corpus{base: data}

	var served atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query []float32 `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		a := truth[string(searchBody(req.Query, 0, false))]
		pos, exact := a.pos, true
		dist := c.distance(req.Query, data.At(a.pos))
		switch served.Add(1) {
		case 1: // correct
		case 2: // wrong position, true nearest distance
			pos = a.second
		case 3:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		case 4:
			exact = false
		case 5: // self-consistent, but not the nearest: only brute force sees it
			pos, dist = a.second, c.distance(req.Query, data.At(a.second))
		case 6:
			w.Write([]byte("{not json"))
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"matches": []map[string]any{{"position": pos, "distance": dist}}, "exact": exact})
	}))
	defer stub.Close()

	samples, _ := runOps(context.Background(), newClient(1), stub.URL, ops, 1)
	failed, why, err := verify(ops, samples, c)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 5 {
		t.Fatalf("failed = %d, want 5 (every reply but the first): %v", failed, why)
	}
	for i, want := range []string{"is at", "status 503", "exact:false", "brute force", "invalid character"} {
		if !strings.Contains(why[i], want) {
			t.Errorf("failure %d = %q, want it to mention %q", i, why[i], want)
		}
	}
}

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct{ Name, Unit string }

// TestSmoke runs all four workloads at toy scale, untraced and traced,
// against a real messi-serve, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, the -seconds default is %v", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}

	ctx := context.Background()
	work := t.TempDir()
	serveBin, err := buildServer(ctx, ".", work)
	if err != nil {
		t.Fatal(err)
	}
	env := environ{serveBin: serveBin, work: work, out: t.TempDir()}
	toy := func(sp spec) spec {
		sp.series, sp.perSecond, sp.checks, sp.layerQueries = 5000, 24, 4, 8
		sp.threshold = 512 // two of the three appended batches trigger a rebuild
		if sp.dtw {        // a DTW query costs ~30 Euclidean ones
			sp.perSecond, sp.layerQueries = 8, 2
		}
		return sp
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(t *testing.T, rep *report, want []declared) {
		t.Helper()
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
		}
		got := map[string]string{}
		for _, m := range rep.metrics {
			if _, dup := got[m.name]; dup {
				t.Errorf("%s emitted twice", m.name)
			}
			got[m.name] = m.unit
			if !name.MatchString(m.name) {
				t.Errorf("bad metric name %q", m.name)
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s = %v", m.name, m.value)
			}
		}
		for _, d := range want {
			if unit, ok := got[d.Name]; !ok {
				t.Errorf("%s is in BENCHMARK.json but was not emitted", d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s emitted with unit %q, BENCHMARK.json says %q", d.Name, unit, d.Unit)
			}
			delete(got, d.Name)
		}
		for extra := range got {
			t.Errorf("%s was emitted but is not in BENCHMARK.json", extra)
		}
	}
	perQuery := func(rep *report) map[string]float64 {
		counts := map[string]float64{}
		for _, m := range rep.metrics {
			if strings.HasPrefix(m.name, "core.") && strings.HasSuffix(m.name, "_per_query") {
				counts[m.name] = m.value
			}
		}
		return counts
	}

	for i, sp := range specs {
		if decl.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, decl.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			rep, err := runWorkload(ctx, env, toy(sp), 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, decl.EndToEnd)
			for _, m := range rep.metrics {
				if m.value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", m.name, m.value)
				}
			}

			traced, err := runWorkload(ctx, env, toy(sp), 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, decl.PerLayer)
			if traced.digest != rep.digest {
				t.Errorf("equal seeds, different query sets: %s vs %s", traced.digest, rep.digest)
			}
			if _, err := os.Stat(env.out + "/trace-" + sp.name + ".json"); err != nil {
				t.Errorf("traced pass left no span file: %v", err)
			}

			// The operation counts of equal seeds repeat exactly; another
			// seed gives another query set.
			again, err := runWorkload(ctx, env, toy(sp), 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			a, b := perQuery(traced), perQuery(again)
			if len(a) == 0 {
				t.Fatal("no core.*_per_query metric emitted")
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v on the same seed", k, v, b[k])
				}
			}
			other, err := generate(toy(sp), 2, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.digest == rep.digest {
				t.Error("seeds 1 and 2 gave the same query set")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([10, 1, 3, 7, 5, 2, 9, 4, 8, 6], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 3, 7, 5, 2, 9, 4, 8, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
