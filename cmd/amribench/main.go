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
	"os"
	"runtime"
	"runtime/pprof"
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

// runShardBench executes the sharded-index worker sweep (see
// internal/bench/shard.go) and writes the JSON artifact.
func runShardBench(path, workerList string, shards int, quick, check bool) error {
	opts := bench.ShardBenchOptions{Shards: shards, Quick: quick}
	ws, err := parseWorkers(workerList)
	if err != nil {
		return err
	}
	opts.Workers = ws
	r, err := bench.ShardBench(opts)
	if err != nil {
		return err
	}
	r.Summary(os.Stdout)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if check {
		if err := r.Check(2.0); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		fmt.Println("check passed: digests match; speedup and serialization bounds hold")
	}
	return nil
}

// parseWorkers splits a comma-separated pool-size list.
func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runPipelineBench executes the measured worker sweep (see
// internal/bench/pipeline.go), writes the artifact, and optionally gates
// against a committed baseline.
func runPipelineBench(opts bench.PipelineBenchOptions, out, gate string, check bool) error {
	r, err := bench.PipelineBench(opts)
	if err != nil {
		return err
	}
	r.Summary(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if gate != "" {
		f, err := os.Open(gate)
		if err != nil {
			return fmt.Errorf("gate baseline: %w", err)
		}
		baseline, err := bench.ReadPipelineBench(f)
		f.Close()
		if err != nil {
			return err
		}
		verdict, err := r.Gate(baseline, 0.10)
		if err != nil {
			return fmt.Errorf("gate failed: %w", err)
		}
		fmt.Println("gate passed: digests match;", verdict)
		return nil
	}
	if check {
		if err := r.Check(); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		fmt.Println("check passed: digests match")
	}
	return nil
}

// runTunerBench executes the retune-under-load suite (see
// internal/bench/tuner.go), writes the artifact, and optionally gates
// against a committed baseline. The acceptance ratio allows v2 p99 tick
// latency up to 1.25x the no-tuning run (best-rep p99s still carry
// single-box noise, and the v2 policy does pay for the migrations it
// keeps); the gate allows up to 10% regression against the committed v2
// point.
func runTunerBench(opts bench.TunerBenchOptions, out, gate string, check bool) error {
	r, err := bench.TunerBench(opts)
	if err != nil {
		return err
	}
	r.Summary(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if gate != "" {
		f, err := os.Open(gate)
		if err != nil {
			return fmt.Errorf("gate baseline: %w", err)
		}
		baseline, err := bench.ReadTunerBench(f)
		f.Close()
		if err != nil {
			return err
		}
		verdict, err := r.Gate(baseline, 1.25, 0.10)
		if err != nil {
			return fmt.Errorf("gate failed: %w", err)
		}
		fmt.Println("gate passed: no thrash, digests match, p99 within bar;", verdict)
		return nil
	}
	if check {
		if err := r.Check(1.25); err != nil {
			return fmt.Errorf("check failed: %w", err)
		}
		fmt.Println("check passed: no thrash, digests match, p99 within bar")
	}
	return nil
}

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		exp   = flag.String("exp", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "shrink the horizon ~5x")
		seeds = flag.String("seeds", "1", "comma-separated workload seeds to average over")
		csv   = flag.String("csv", "", "also write the figure series (fig6/fig6hash/fig7) as CSV to this file")

		jsonOut = flag.Bool("json", false, "run the modeled shard bench and write BENCH_shard.json-style output")
		out     = flag.String("out", "", "output path (-json default BENCH_shard.json, -measure default BENCH_pipeline.json)")
		workers = flag.String("workers", "", "comma-separated probe pool sizes (-json default 1,2,4,8; -measure default 1,2,8)")
		shards  = flag.Int("shards", 8, "index shard count (1 = flat serialized index)")
		check   = flag.Bool("check", false, "with -json/-measure/-tuner: fail unless the suite's acceptance bars hold (digests match; -json also bars modeled speedup, -tuner thrash and p99)")

		measure = flag.Bool("measure", false, "run the measured worker-sweep bench and write BENCH_pipeline.json-style output")
		reps    = flag.Int("reps", 5, "with -measure/-tuner: timed repetitions per point (median reported)")
		warmup  = flag.Int("warmup", 1, "with -measure/-tuner: untimed repetitions before the timed ones")
		gate    = flag.String("gate", "", "with -measure/-tuner: committed baseline JSON to gate against (no >10% regression)")

		tunerBench = flag.Bool("tuner", false, "run the retune-under-load bench and write BENCH_tuner.json-style output")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		mtxprofile = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mtxprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer func() {
			if f, err := os.Create(*mtxprofile); err == nil {
				pprof.Lookup("mutex").WriteTo(f, 0)
				f.Close()
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC()
			if f, err := os.Create(*memprofile); err == nil {
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
		}()
	}

	if *tunerBench {
		opts := bench.TunerBenchOptions{
			Shards: *shards,
			Reps:   *reps, Warmup: *warmup, Quick: *quick,
		}
		path := *out
		if path == "" && *gate == "" {
			// Default output only outside gate mode: a -gate run must
			// never clobber the committed baseline it compares against.
			path = "BENCH_tuner.json"
		}
		if err := runTunerBench(opts, path, *gate, *check); err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
		return
	}

	if *measure {
		ws, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(2)
		}
		opts := bench.PipelineBenchOptions{
			Shards: *shards, Workers: ws,
			Reps: *reps, Warmup: *warmup, Quick: *quick,
		}
		path := *out
		if path == "" && *gate == "" {
			// Default output only outside gate mode: a -gate run must
			// never clobber the committed baseline it compares against.
			path = "BENCH_pipeline.json"
		}
		if err := runPipelineBench(opts, path, *gate, *check); err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		path := *out
		if path == "" {
			path = "BENCH_shard.json"
		}
		wlist := *workers
		if wlist == "" {
			wlist = "1,2,4,8"
		}
		if err := runShardBench(path, wlist, *shards, *quick, *check); err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := bench.Options{Quick: *quick}
	for _, s := range strings.Split(*seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amribench: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		opts.Seeds = append(opts.Seeds, v)
	}

	run := func(e bench.Experiment) {
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		if err := e.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "amribench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *csv != "" {
		if err := writeSeriesCSV(*exp, opts, *csv); err != nil {
			fmt.Fprintln(os.Stderr, "amribench:", err)
			os.Exit(1)
		}
	}

	switch {
	case *all:
		for _, e := range bench.Registry() {
			run(e)
		}
	case *exp != "":
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "amribench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		run(e)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
