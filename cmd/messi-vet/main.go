// Command messi-vet machine-checks the repository's concurrency and
// durability invariants with the analyzer suite in internal/analyze:
//
//	atomicpair  best-so-far (dist,pos) published as one atomic pair
//	rcupublish  RCU generations immutable after the atomic.Pointer swap
//	errwrap     %w wrapping + errors.Is for Err* sentinels
//	faultsite   failpoints named, registered eagerly, matrix-covered
//	metricname  messi_* snake_case metrics, one kind per name
//
// It runs one way, as a whole-program pass over the matched packages,
// their in-package test files and their external _test packages, so
// the cross-package Finish rules (crash-matrix coverage, one kind per
// metric name) see every failpoint and every registration:
//
//	go run ./cmd/messi-vet ./...
//
// With no pattern it checks ./.... Each finding is printed to stderr
// as `file:line:col: [analyzer] message`; -list names the analyzers.
//
// Diagnostics can be suppressed with a reviewed
// `//messi-vet:ignore <analyzer> <reason>` comment on the flagged line
// or the line directly above it.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes -list to stdout and
// findings and failures to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("messi-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: messi-vet [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range analyze.Analyzers() {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range analyze.Analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := analyze.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "messi-vet:", err)
		return 2
	}
	diags, err := analyze.Run(fset, pkgs, analyze.Analyzers())
	if err != nil {
		fmt.Fprintln(stderr, "messi-vet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
