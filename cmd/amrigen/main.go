// Command amrigen emits the synthetic workload as CSV, one row per tuple:
//
//	tick,stream,seq,attr0,attr1,...
//
// Useful for inspecting what the generators produce, feeding external
// tools, or diffing workloads across seeds.
//
// Usage:
//
//	amrigen [-ticks 60] [-seed 1] [-profile drift|stable|skewed] [-rate 50]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"amri/internal/query"
	"amri/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected: it parses args, writes the
// workload CSV to stdout and returns the exit status — 0 on success, 1 on a
// bad profile or a failed write, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amrigen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ticks   = fs.Int64("ticks", 60, "number of ticks to generate")
		seed    = fs.Uint64("seed", 1, "workload seed")
		profile = fs.String("profile", "drift", "workload profile: drift, stable or skewed")
		rate    = fs.Int("rate", 0, "override tuples per stream per tick (0 = profile default)")
		window  = fs.Int64("window", 60, "query window length in ticks")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var prof stream.Profile
	switch *profile {
	case "drift":
		prof = stream.DriftProfile()
	case "stable":
		prof = stream.StableProfile()
	case "skewed":
		prof = stream.SkewedProfile()
	default:
		fmt.Fprintf(stderr, "amrigen: unknown profile %q\n", *profile)
		return 2
	}
	if *rate > 0 {
		prof.LambdaD = *rate
	}

	q := query.FourWay(*window)
	gen, err := stream.New(q, prof, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "amrigen:", err)
		return 1
	}

	w := bufio.NewWriter(stdout)
	fmt.Fprintln(w, "tick,stream,seq,attr0,attr1,attr2")
	for tick := int64(0); tick < *ticks; tick++ {
		for _, t := range gen.Tick(tick) {
			fmt.Fprintf(w, "%d,%d,%d", tick, t.Stream, t.Seq)
			for _, v := range t.Attrs {
				fmt.Fprintf(w, ",%d", v)
			}
			fmt.Fprintln(w)
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "amrigen:", err)
		return 1
	}
	return 0
}
