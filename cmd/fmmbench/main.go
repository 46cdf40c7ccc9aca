// Command fmmbench regenerates the tables and figures of Benson & Ballard,
// "A Framework for Practical Parallel Fast Matrix Multiplication"
// (PPoPP 2015), on this machine, using the repository's pure-Go substrate.
//
// Usage:
//
//	fmmbench -list                 # show experiment ids
//	fmmbench -exp fig5             # one experiment
//	fmmbench -exp table2,fig4      # several experiments
//	fmmbench -exp all              # everything (several minutes)
//	fmmbench -exp fig4 -scale 1.5 -trials 5 -workers 24 -small 6
//
// Problem sizes default to dimensions suited to the pure-Go gemm kernel
// (absolute sizes are smaller than the paper's MKL-based runs; the shapes and
// who-wins comparisons are what reproduce). -scale grows them toward
// paper-scale. End-to-end and per-layer numbers of the shipped dispatcher
// come from `go run ./benchmark`, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastmm/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id(s), comma-separated, or 'all'")
	list := flag.Bool("list", false, "list experiments")
	trials := flag.Int("trials", 3, "timing trials per point (median is reported)")
	scale := flag.Float64("scale", 1, "problem-size multiplier")
	workers := flag.Int("workers", 0, "high worker count (default min(24, GOMAXPROCS))")
	small := flag.Int("small", 0, "low worker count (default min(6, GOMAXPROCS))")
	quick := flag.Bool("quick", false, "smoke-test sizes")
	flag.Parse()

	if *list || *exp == "" {
		listExperiments(os.Stdout)
		if *exp == "" {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	ids, err := resolveIDs(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		listExperiments(os.Stderr)
		os.Exit(2)
	}

	cfg := bench.Config{
		Trials:       *trials,
		Scale:        *scale,
		Workers:      *workers,
		SmallWorkers: *small,
		Quick:        *quick,
		Out:          os.Stdout,
	}

	start := time.Now()
	for _, id := range ids {
		expStart := time.Now()
		if _, err := bench.Run(id, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s took %v]\n", id, time.Since(expStart).Round(time.Millisecond))
	}
	if len(ids) > 1 {
		fmt.Printf("\n%d experiments completed in %v\n", len(ids), time.Since(start).Round(time.Second))
	}
}

// resolveIDs expands the -exp value into known experiment ids, rejecting
// unknown ones with a non-zero exit so CI and scripts fail loudly.
func resolveIDs(exp string) ([]string, error) {
	if exp == "all" {
		return bench.Names(), nil
	}
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, err := bench.Lookup(id); err != nil {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", exp)
	}
	return ids, nil
}

func listExperiments(w *os.File) {
	fmt.Fprintln(w, "experiments:")
	for _, n := range bench.Names() {
		e, _ := bench.Lookup(n)
		fmt.Fprintf(w, "  %-10s %s\n", n, e.Title)
	}
}
