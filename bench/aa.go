package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a contract-mode run prints.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// selfCheck is the A/A test: the same binary measured twice must agree
// with itself. Per workload it makes two sets of n runs, each run a fresh
// process on its own seed (set A on seeds 1..n, set B on n+1..2n, so the
// comparison carries seed-to-seed variation as well as run-to-run noise),
// and holds every end-to-end metric to its bound in BENCHMARK.json twice
// over: the spread of set A (interquartile range ÷ median; setup_s is
// exempt, as in the acceptance rule) and the shift of the median from set A
// to set B in the worse direction. It returns an error if any is exceeded.
func selfCheck(ctx context.Context, n int, seconds float64, module, work string) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs per set, got %d", n)
	}
	raw, err := os.ReadFile(filepath.Join(module, "..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Printf("%-13s %-14s %10s %10s %10s %8s %10s %8s %6s\n",
		"workload", "metric", "A q1", "A median", "A q3", "spread", "B median", "shift", "bound")
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for i := 0; i < n; i++ {
				seed := set*n + i + 1
				cmd := exec.CommandContext(ctx, self, "-module", module, "-work", work,
					"--workload", sp.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
				// On interrupt, let the run kill its server and remove its files.
				cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: last line is not a result: %w", sp.name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d ops failed", sp.name, seed, res.Failed)
				}
				fmt.Fprintf(os.Stderr, "%s set %c seed %d: %s\n", sp.name, 'A'+set, seed, lines[len(lines)-1])
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, m := range c.EndToEnd {
			q1, medA, q3 := quartiles(sets[0][m.Name])
			_, medB, _ := quartiles(sets[1][m.Name])
			spread := (q3 - q1) / medA
			shift := (medB - medA) / medA // positive = B worse
			if m.Better == "higher" {
				shift = -shift
			}
			verdict := ""
			if (spread > m.Bound && m.Name != "setup_s") || shift > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-13s %-14s %10.4f %10.4f %10.4f %7.2f%% %10.4f %+7.2f%% %5.0f%% %s\n",
				sp.name, m.Name, q1, medA, q3, 100*spread, medB, 100*shift, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d workload × metric pairs outside their bound", exceeded)
	}
	return nil
}

// quartiles are Python's statistics.quantiles(v, n=4) — the exclusive
// method the acceptance rule names — so spreads computed here and there
// agree.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := min(max(int(pos), 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}
