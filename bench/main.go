// Command bench is the repository's benchmark: it builds cmd/messi-serve,
// boots it on seeded data, drives a fixed op list over loopback HTTP,
// checks every answer, and prints end-to-end metrics (or, with --trace 1,
// per-layer metrics). README.md in this directory is the manual.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Int64("seed", 1, "seed of the data, the queries and the appended rows")
		seconds = fs.Float64("seconds", defaultSeconds, "requested window; fixes the op count (ops = frozen ops/s × seconds)")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics instead of end-to-end ones")
		aa      = fs.Int("aa", 0, "A/A self-check: run every workload on this many seeds, twice, and compare the two sets")
		module  = fs.String("module", ".", "directory of the benchmark's Go module")
		work    = fs.String("work", "", "directory for build outputs and run files (default <module>/../.bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *work == "" {
		*work = filepath.Join(*module, "..", ".bench_build")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	if *aa > 0 {
		return selfCheck(ctx, *aa, *seconds, *module, *work)
	}
	run := specs
	if *name != "all" {
		sp, ok := findSpec(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		run = []spec{sp}
	}
	serveBin, err := buildServer(ctx, *module, *work)
	if err != nil {
		return err
	}
	env := environ{serveBin: serveBin, work: *work, out: filepath.Join(*module, "out")}
	stamp(*module, *seed, *seconds)
	wrong := false
	for _, sp := range run {
		rep, err := runWorkload(ctx, env, sp, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		rep.print()
		wrong = wrong || rep.failed > 0
	}
	if wrong {
		return fmt.Errorf("ops failed the correctness gate")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// stamp records what produced the numbers that follow.
func stamp(module string, seed int64, seconds float64) {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = module
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, seconds %v, server -pool %s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds, pool)
}

// print writes the report for people, then the one-line JSON result the
// benchmark contract asks for as the last line.
func (r *report) print() {
	fmt.Printf("# %s: %d ops attempted in %.2f s, %d failed, query set sha256 %.16s\n",
		r.workload, r.attempted, r.windowS, r.failed, r.digest)
	for _, why := range r.failures {
		fmt.Printf("#   FAILED %s\n", why)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Printf("%-14s %-36s %14.4f %-6s (n=%d)\n", r.workload, m.name, m.value, m.unit, m.samples)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is a finite float
	}
	fmt.Println(string(line))
}
