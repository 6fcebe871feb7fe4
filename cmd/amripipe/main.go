// Command amripipe runs the concurrent goroutine-per-operator engine on the
// synthetic workload and reports real wall-clock throughput — the live twin
// of the virtual-clock simulation cmd/amribench regenerates the paper's
// figures on. With -chaos-seed it doubles as a fault-injection harness: operators panic and
// restart from checkpoints, deliveries stall or saturate, and migrations
// abort mid-step, all on a reproducible seeded schedule.
//
// With -replay it loads a fault-plan repro emitted by cmd/amrichaos and
// replays it deterministically, re-checking every durability invariant.
//
// Usage:
//
//	amripipe [-ticks 300] [-seed 1] [-method cdia-h] [-rate 50] [-procs N]
//	         [-mailbox-cap 0] [-shed-policy block] [-chaos-seed 0]
//	amripipe -replay repro.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"amri/internal/chaos"
	"amri/internal/core"
	"amri/internal/fault"
	"amri/internal/pipeline"
	"amri/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected: it parses args, executes the
// workload (or the replay) and returns the exit status — 0 on success, 1 on
// a failed run or a still-failing repro, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amripipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ticks     = fs.Int64("ticks", 300, "workload ticks to process")
		seed      = fs.Uint64("seed", 1, "workload seed")
		rate      = fs.Int("rate", 0, "override tuples per stream per tick")
		method    = fs.String("method", "cdia-h", "assessment: sria, csria, dia, cdia-r, cdia-h")
		procs     = fs.Int("procs", 0, "GOMAXPROCS override (0 = runtime default)")
		mboxCap   = fs.Int("mailbox-cap", 0, "operator mailbox capacity (0 = unbounded)")
		shedPol   = fs.String("shed-policy", "block", "overload policy: block, drop-newest, drop-oldest")
		chaosSeed = fs.Uint64("chaos-seed", 0, "fault-injection seed (0 = no faults)")
		replay    = fs.String("replay", "", "replay a chaos repro file instead of running the workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *replay != "" {
		return replayRepro(*replay, stdout, stderr)
	}

	var m core.Method
	switch *method {
	case "sria":
		m = core.MethodSRIA
	case "csria":
		m = core.MethodCSRIA
	case "dia":
		m = core.MethodDIA
	case "cdia-r":
		m = core.MethodCDIARandom
	case "cdia-h":
		m = core.MethodCDIAHighest
	default:
		fmt.Fprintf(stderr, "amripipe: unknown method %q\n", *method)
		return 2
	}

	policy, err := pipeline.ParsePolicy(*shedPol)
	if err != nil {
		fmt.Fprintln(stderr, "amripipe:", err)
		return 2
	}

	plan := fault.None
	if *chaosSeed != 0 {
		plan = fault.Default(*chaosSeed)
	}

	prof := stream.DriftProfile()
	if *rate > 0 {
		prof.LambdaD = *rate
	}

	r, err := pipeline.Run(pipeline.Config{
		Profile:    prof,
		Seed:       *seed,
		Ticks:      *ticks,
		Method:     m,
		MailboxCap: *mboxCap,
		ShedPolicy: policy,
		Fault:      plan,
	})
	if err != nil {
		fmt.Fprintln(stderr, "amripipe:", err)
		return 1
	}

	fmt.Fprintf(stdout, "GOMAXPROCS:      %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "ticks:           %d (%d tuples)\n", *ticks, r.TuplesIngested)
	fmt.Fprintf(stdout, "join results:    %d\n", r.Results)
	fmt.Fprintf(stdout, "search requests: %d\n", r.Probes)
	fmt.Fprintf(stdout, "index retunes:   %d\n", r.Retunes)
	if s := r.Tuner; s.Passes > 0 {
		fmt.Fprintf(stdout, "tuner:           %d passes, %d migrations, holds: %d cooldown, %d flip-flop, %d uneconomical\n",
			s.Passes, s.Migrations, s.CooldownHolds, s.FlipFlopHolds, s.Uneconomical)
		if s.PredictedMigCost > 0 {
			fmt.Fprintf(stdout, "what-if ledger:  predicted migration cost %.0f, realized %.0f (%d drains, %d aborted)\n",
				s.PredictedMigCost, s.RealizedMigCost, s.Completed, s.Aborted)
		}
	}
	fmt.Fprintf(stdout, "wall time:       %v\n", r.Wall)
	fmt.Fprintf(stdout, "throughput:      %.0f tuples/s, %.0f probes/s (wall clock)\n",
		float64(r.TuplesIngested)/r.Wall.Seconds(), float64(r.Probes)/r.Wall.Seconds())
	if *mboxCap > 0 || plan.Enabled() {
		fmt.Fprintf(stdout, "sheds:           %d (%d ingest, %d probe; per-op %v)\n",
			r.Sheds, r.IngestShed, r.ProbeShed, r.ShedsPerOp)
	}
	if plan.Enabled() {
		fmt.Fprintf(stdout, "chaos:           %d restarts (%d permanent failures), %d lost in flight\n",
			r.Restarts, r.PermanentFailures, r.IngestLost+r.ProbeLost)
		fmt.Fprintf(stdout, "checkpoints:     %d tuples replayed, %d lost past checkpoint\n",
			r.Replayed, r.StateLost)
		fmt.Fprintf(stdout, "faults:          %d migration aborts, %d delivery stalls, %d pressure events\n",
			r.MigrationAborts, r.InjectedDelays, r.PressureEvents)
	}
	return 0
}

// replayRepro re-runs a scenario emitted by cmd/amrichaos and reports
// whether the recorded failure still reproduces. Exit status: 0 if every
// invariant now holds, 1 if the repro still fails, 2 if the file is not a
// valid scenario.
func replayRepro(path string, stdout, stderr io.Writer) int {
	sc, err := chaos.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(stderr, "amripipe:", err)
		return 2
	}
	fmt.Fprintf(stdout, "replaying %s: seed %d, %d ticks, %d workers, %d shards, crashes %v",
		path, sc.Seed, sc.Ticks, sc.Workers, sc.Shards, sc.Plan.CrashTicks)
	if sc.FlakeEvery > 1 {
		fmt.Fprintf(stdout, ", flaky store (drop every %d)", sc.FlakeEvery)
	}
	fmt.Fprintln(stdout)
	rep := chaos.Explore(sc)
	fmt.Fprintf(stdout, "results:    %d (reference %d), %d recoveries, %d WAL appends dropped\n",
		rep.Results, rep.RefResults, rep.Recoveries, rep.Dropped)
	if !rep.Failed() {
		fmt.Fprintln(stdout, "verdict:    PASS — every durability invariant holds")
		return 0
	}
	fmt.Fprintf(stdout, "verdict:    FAIL — %d invariant violation(s)\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  - %s\n", v)
	}
	return 1
}
