// Command benchmark is the repository's benchmark: it runs the real
// concurrent pipeline on four workloads, prints every end-to-end metric
// (or, with -trace 1, every per-layer metric) as "name value unit", checks
// the result digest against an independent single-threaded replay of the
// same job, and ends with one JSON line the driver reads. BENCHMARK.json
// names the same workloads and metrics; README.md is the glossary.
//
// The load is closed and tick-synchronous: the pipeline's own source
// goroutine generates tick k+1 only after tick k has quiesced, so
// tuples_per_sec is work completed per second at the stated input size,
// not a sustainable-rate search.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir receives the result files, the span files and the durable
// workload's temporary stores. run.sh points it at benchmark/out whatever the
// caller's working directory is (-out).
var outDir = "out"

// minResults is the fewest join results an end-to-end run must emit for its
// digest to mean anything. scan emits about 120 per run, Poisson-like over
// seeds, so a floor of 100 would fail one unseen seed in thirty; 50 is six
// standard deviations below.
const minResults = 50

// minSteadyTicks is the fewest steady-window ticks an end-to-end horizon
// must keep, so tick_p95_us has at least ten samples beyond it.
const minSteadyTicks = 340

// maxReps caps the timed repetitions of one end-to-end run: a third one
// would buy little (the host's slow phases outlast a run) and would put a
// driver pass of 80 end-to-end runs too close to its time cap.
const maxReps = 2

// setupSamples is how many set-up-only runs setup_s is the median of, in
// three groups; one more runs first, unmeasured.
const setupSamples = 6

type hostInfo struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	ProbeWorkers int    `json:"probe_workers"`
}

// report is one workload's run: what the benchmark prints, writes under
// out/ and summarizes in the final JSON line.
type report struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	Ticks     int64               `json:"ticks"`
	Host      hostInfo            `json:"host"`
	Reference string              `json:"reference_digest"`
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	Info      []string            `json:"info,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	// RetunesPerTuple feeds the cross-workload guard under -all.
	RetunesPerTuple float64 `json:"retunes_per_tuple"`

	metrics       *metricSet
	tuplesPerTick int
}

// fail records a correctness failure that voids the given tuples.
func (r *report) fail(tuples uint64, format string, args ...any) {
	r.Failed += tuples
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// guard records a violated workload-intent guard.
func (r *report) guard(format string, args ...any) {
	r.Problems = append(r.Problems, "guard: "+fmt.Sprintf(format, args...))
}

func (r *report) info(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s seed %d ticks %d trace %v\n", r.Workload, r.Seed, r.Ticks, r.Trace)
	fmt.Fprintf(w, "# num_cpu %d GOMAXPROCS %d %s ProbeWorkers %d Shards %d\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.ProbeWorkers, cfgShards)
	fmt.Fprintf(w, "# closed loop, tick-synchronous: tick k+1 is generated after tick k quiesces; %d tuples per tick\n", r.tuplesPerTick)
	for _, s := range r.Info {
		fmt.Fprintf(w, "# %s\n", s)
	}
	r.metrics.print(w)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# PROBLEM %s\n", p)
	}
	fmt.Fprintf(w, "# reference digest %s correct %v attempted %d failed %d\n", r.Reference, r.Correct, r.Attempted, r.Failed)
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, d := range r.metrics.defs {
		m := r.metrics.values[d.name]
		line.Metrics[d.name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runWorkload measures one workload: end to end, or layer by layer.
func runWorkload(w workload, seed uint64, seconds float64, trace bool) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: seed, Trace: trace, Ticks: w.ticks,
		Host: hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), ProbeWorkers: probeWorkers()},
		tuplesPerTick: w.tuplesPerTick(),
	}
	if steady := w.ticks - w.query().WindowTicks; steady < minSteadyTicks {
		rep.guard("%d steady ticks < %d", steady, minSteadyTicks)
	}
	if w.durable {
		rep.info("durable flush policy: group commit, WAL fsync at every tick boundary and before every checkpoint save, none by append count")
	}
	var err error
	if trace {
		err = measureLayers(w, seed, rep)
	} else {
		err = measureEndToEnd(w, seed, seconds, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	rep.Metrics = rep.metrics.values
	return rep, nil
}

// measureEndToEnd is the tracing-off run: the set-up-only runs, then timed
// repetitions of the full horizon until the requested measuring time is used
// up, each checked against the replay driver's reference digest. The
// reference is computed between the first repetition and the rest: this
// host's speed wanders by several percent over tens of seconds, and spacing
// the repetitions out samples more of that than running them back to back.
func measureEndToEnd(w workload, seed uint64, seconds float64, rep *report) error {
	ms := newMetricSet(e2eMetrics)
	rep.metrics = ms
	// setup_s lasts a fraction of a second, less than one of this host's slow
	// phases, so its samples are spread over the run: a third before the
	// repetitions, a third after the first, a third at the end.
	var setups []float64
	sampleSetup := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := measureSetup(w, seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if _, err := measureSetup(w, seed); err != nil { // the process's cold start
		return err
	}
	if err := sampleSetup(setupSamples / 3); err != nil {
		return err
	}

	var (
		runs        []*pipelineRun
		ref         *replayResult
		measuredFor time.Duration
		steady      int
		tps, p50    []float64
		p95, state  []float64
	)
	for r := 0; r < maxReps; r++ {
		// A full-horizon repetition is the unit of measurement, so the
		// requested time is met to the nearest repetition: another one
		// starts only while it is expected to end within 1.25x of it.
		if r > 0 && (measuredFor+runs[r-1].wall).Seconds() > 1.25*seconds {
			break
		}
		pr, err := runPipeline(w, seed, runOptions{ticks: w.ticks, workers: probeWorkers()})
		if err != nil {
			return err
		}
		runs = append(runs, pr)
		measuredFor += pr.wall
		ts, err := pr.tickStats(w)
		if err != nil {
			return err
		}
		steady = ts.steadyTicks
		tps = append(tps, ts.tuplesPerSec)
		p50 = append(p50, float64(ts.p50)/1e3)
		p95 = append(p95, float64(ts.p95)/1e3)
		state = append(state, float64(pr.heapGrowth)/(1<<20))
		if r == 0 {
			if err := sampleSetup(setupSamples / 3); err != nil {
				return err
			}
			if ref, err = replay(w, seed, w.ticks, nil); err != nil {
				return err
			}
		}
	}
	if err := sampleSetup(setupSamples / 3); err != nil {
		return err
	}

	rep.Reference = ref.digest.String()
	if n := ref.digest.count(); n < minResults {
		rep.guard("%d results; a digest over fewer than %d is vacuous", n, minResults)
	}
	for r, pr := range runs {
		tuples := pr.res.TuplesIngested
		rep.Attempted += tuples
		if pr.digest != rep.Reference {
			rep.fail(tuples, "repetition %d: digest %s != reference %s", r, pr.digest, rep.Reference)
		} else {
			rep.Failed += pr.failedTuples()
		}
	}
	ms.setSamples("tuples_per_sec", tps)
	ms.setSamples("tick_p50_us", p50)
	ms.setSamples("tick_p95_us", p95)
	ms.setSamples("setup_s", setups)
	ms.setSamples("state_mb", state)
	last := runs[len(runs)-1].res
	rep.RetunesPerTuple = ratio(float64(last.Retunes), float64(last.TuplesIngested))
	rep.info("%d repetitions of %d ticks, %d steady ticks each (the tick percentiles' sample count), %.1f s measured",
		len(runs), w.ticks, steady, measuredFor.Seconds())
	rep.info("join results per second (the paper's unit): %.6g = tuples_per_sec x %d results / %d tuples; probes %d retunes %d",
		ms.values["tuples_per_sec"].Value*float64(last.Results)/float64(last.TuplesIngested),
		last.Results, last.TuplesIngested, last.Probes, last.Retunes)
	rep.info("single-threaded replay of the same job: %.3f s", ref.wall.Seconds())
	return ms.complete()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run() (ok bool, err error) {
	var (
		name    = flag.String("workload", "", "workload to run: drift, scan, ingest or durable")
		all     = flag.Bool("all", false, "run every workload and write out/results-seed<n>.json")
		seed    = flag.Uint64("seed", 1, "workload seed; the reference digest is computed per seed")
		seconds = flag.Float64("seconds", 20, "how long to measure, met to the nearest full-horizon repetition (1 or 2 of them)")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics in place of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.StringVar(&outDir, "out", outDir, "directory for result files, span files and temporary stores")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return false, fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*name == "") == !*all || *trace < 0 || *trace > 1 {
		flag.Usage()
		return false, fmt.Errorf("give exactly one of -workload <name> and -all, and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	todo := workloads()
	if !*all {
		w, err := lookupWorkload(*name)
		if err != nil {
			return false, err
		}
		todo = []workload{w}
	}
	ok = true
	var reports []*report
	suffix := ""
	if *trace == 1 {
		suffix = "-trace"
	}
	for _, w := range todo {
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return false, err
		}
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d%s.json", w.name, *seed, suffix)), rep); err != nil {
			return false, err
		}
		if err := rep.print(os.Stdout); err != nil {
			return false, err
		}
		ok = ok && rep.Correct
		reports = append(reports, rep)
	}
	if *all {
		for _, p := range checkCrossIntent(reports, *trace == 0) {
			fmt.Printf("# PROBLEM guard: %s\n", p)
			ok = false
		}
		if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("results-seed%d%s.json", *seed, suffix)), reports); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}
