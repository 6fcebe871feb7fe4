// Command amriquery runs an arbitrary SPJ query (described in JSON) over a
// recorded workload (the cmd/amrigen CSV format) or the synthetic
// generator, printing the run summary and final index configurations.
//
// Usage:
//
//	amriquery -dump-fourway > q.json        # emit a template query spec
//	amrigen -ticks 300 > trace.csv
//	amriquery -query q.json -trace trace.csv -system amri
//	amriquery -query q.json -ticks 300 -system hash-4
//
// Systems: amri (CDIA-highest), amri-sria, amri-csria, static, scan, or
// hash-K for K access modules.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"amri/internal/engine"
	"amri/internal/metrics"
	"amri/internal/query"
	"amri/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected: it parses args, runs the
// query and returns the exit status — 0 on success, 1 when the query, the
// trace or the run is bad, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amriquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryPath = fs.String("query", "", "path to the JSON query spec (empty = the paper's 4-way join)")
		tracePath = fs.String("trace", "", "replay this workload CSV instead of generating")
		system    = fs.String("system", "amri", "contender: amri, amri-sria, amri-csria, static, scan, hash-K")
		ticks     = fs.Int64("ticks", 600, "run horizon (generated workloads)")
		seed      = fs.Uint64("seed", 1, "workload seed (generated workloads)")
		dump      = fs.Bool("dump-fourway", false, "print the 4-way join as a JSON spec and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "amriquery:", err)
		return code
	}

	if *dump {
		b, err := query.FourWay(60).MarshalJSON()
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}

	cfg := engine.DefaultRunConfig()
	cfg.Seed = *seed
	cfg.MaxTicks = *ticks

	if *queryPath != "" {
		f, err := os.Open(*queryPath)
		if err != nil {
			return fail(1, err)
		}
		q, err := query.ParseJSON(f)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
		cfg.Query = q
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return fail(1, err)
		}
		tr, err := stream.ParseTrace(f, cfg.Profile.PayloadBytes)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
		cfg.Source = tr
		if tr.MaxTick()+1 < cfg.MaxTicks {
			cfg.MaxTicks = tr.MaxTick() + 1
		}
	}
	// A horizon shorter than the default warm-up (a short trace, or -ticks
	// below 180) warms up for its first quarter instead.
	if cfg.WarmupTicks >= cfg.MaxTicks {
		cfg.WarmupTicks = cfg.MaxTicks / 4
	}

	sys, err := engine.ParseSystem(*system)
	if err != nil {
		return fail(2, err)
	}
	eng, err := engine.New(cfg, sys)
	if err != nil {
		return fail(1, err)
	}
	r := eng.Run()
	fmt.Fprintln(stdout, metrics.Table([]*metrics.RunResult{r}))
	fmt.Fprintln(stdout, r.Latency.String())
	fmt.Fprintln(stdout, "final index configurations:")
	for _, c := range r.FinalConfigs {
		fmt.Fprintln(stdout, " ", c)
	}
	if len(r.CostBreakdown) > 0 {
		fmt.Fprintf(stdout, "cost breakdown: maintain %.0f%%, search %.0f%%, assess %.0f%%, route %.0f%%\n",
			100*r.CostBreakdown["maintain"], 100*r.CostBreakdown["search"],
			100*r.CostBreakdown["assess"], 100*r.CostBreakdown["route"])
	}
	return 0
}
