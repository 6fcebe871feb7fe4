// Command amribench regenerates the paper's tables and figures.
//
// Usage:
//
//	amribench -list
//	amribench -exp fig6 [-quick] [-seeds 1,2,3]
//	amribench -all [-quick]
//
// Each experiment runs the relevant contenders over the calibrated
// synthetic workload and prints the same rows/series the paper reports,
// plus the headline ratios (who wins, by roughly what factor, who runs out
// of memory when). Full-scale runs take tens of seconds per experiment;
// -quick shrinks the horizon five-fold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"amri/internal/bench"
	"amri/internal/metrics"
)

// writeSeriesCSV re-runs the named figure experiment through its typed API
// and dumps the sampled series for external plotting.
func writeSeriesCSV(exp string, opts bench.Options, path string) error {
	var runs []*metrics.RunResult
	switch exp {
	case "fig6":
		r, err := bench.Fig6(opts)
		if err != nil {
			return err
		}
		runs = r.Runs()
	case "fig6hash":
		r, err := bench.Fig6Hash(opts)
		if err != nil {
			return err
		}
		runs = r.Runs()
	case "fig7":
		r, err := bench.Fig7(opts)
		if err != nil {
			return err
		}
		runs = r.Runs()
	default:
		return fmt.Errorf("-csv supports fig6, fig6hash and fig7, not %q", exp)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteCSV(f, runs)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: flags come from args,
// output goes to the given writers, and the exit status is returned instead
// of passed to os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amribench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list  = fs.Bool("list", false, "list experiments and exit")
		exp   = fs.String("exp", "", "experiment id to run (see -list)")
		all   = fs.Bool("all", false, "run every experiment")
		quick = fs.Bool("quick", false, "shrink the horizon ~5x")
		seeds = fs.String("seeds", "1", "comma-separated workload seeds to average over")
		csv   = fs.String("csv", "", "also write the figure series (fig6/fig6hash/fig7) as CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	opts := bench.Options{Quick: *quick}
	for _, s := range strings.Split(*seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "amribench: bad seed %q: %v\n", s, err)
			return 2
		}
		opts.Seeds = append(opts.Seeds, v)
	}

	var exps []bench.Experiment
	switch {
	case *all:
		exps = bench.Registry()
	case *exp != "":
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "amribench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		exps = []bench.Experiment{e}
	default:
		fs.Usage()
		return 2
	}

	if *csv != "" {
		if err := writeSeriesCSV(*exp, opts, *csv); err != nil {
			fmt.Fprintln(stderr, "amribench:", err)
			return 1
		}
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "### %s — %s\n\n", e.ID, e.Title)
		if err := e.Run(opts, stdout); err != nil {
			fmt.Fprintf(stderr, "amribench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
