// Command messi-gen writes synthetic dataset files in the binary format
// understood by messi-query, messi-serve, and messi.BuildFromFile — and,
// with -snapshot, a ready-to-serve index snapshot directory (MANIFEST
// plus member file) that messi-serve boots from in a fraction of the
// build time.
//
// Usage:
//
//	messi-gen -kind random  -count 100000 -length 256 -out random.bin
//	messi-gen -kind seismic -count 100000 -out seismic.bin
//	messi-gen -kind sald    -count 200000 -out sald.bin   # length defaults to 128
//	messi-gen -kind random  -count 100000 -snapshot index.snap
//	messi-gen -kind random  -count 100000 -out data.bin -snapshot index.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	messi "repro"
	"repro/internal/dataset"
	"repro/internal/persist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "messi-gen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("messi-gen", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "random", "dataset family: random, seismic, or sald")
		count     = fs.Int("count", 100000, "number of series")
		length    = fs.Int("length", 0, "series length (default: 256, or 128 for sald)")
		seed      = fs.Int64("seed", 1, "generator seed")
		out       = fs.String("out", "", "output dataset file path (this or -snapshot is required)")
		snapshot  = fs.String("snapshot", "", "also build an index over the data and write it as a snapshot directory here")
		leafCap   = fs.Int("leaf", 0, "snapshot index leaf capacity (default 2000)")
		normalize = fs.Bool("normalize", false, "snapshot index: z-normalize the data before building")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *out == "" && *snapshot == "" {
		return errors.New("one of -out or -snapshot is required")
	}
	k := dataset.Kind(*kind)
	n := *length
	if n == 0 {
		n = k.DefaultLength()
	}
	col, err := dataset.Generate(k, *count, n, *seed)
	if err != nil {
		return err
	}
	// The raw dataset is written first: with -normalize the index build
	// rewrites the generated data in place, and the dataset file should
	// hold the unnormalized series either way.
	if *out != "" {
		if err := dataset.WriteFile(*out, col); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d series × %d points (%d MB) to %s\n",
			col.Count(), col.Length, col.Bytes()>>20, *out)
	}
	if *snapshot != "" {
		ix, err := messi.BuildFlat(col.Data, col.Length, &messi.Options{
			LeafCapacity: *leafCap,
			Normalize:    *normalize,
		})
		if err != nil {
			return err
		}
		if err := ix.Save(*snapshot); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote index snapshot of %d series × %d points (%d MB) to %s\n",
			ix.Len(), ix.SeriesLen(), persist.Size(*snapshot)>>20, *snapshot)
	}
	return nil
}
