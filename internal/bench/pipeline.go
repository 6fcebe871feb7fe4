package bench

// Pipeline bench: the MEASURED wall-clock companion to the modeled shard
// bench. Where shard.go schedules a traced run under an idealized LPT model
// (reproducible on any machine, but a model), this file times the real
// pipeline across a worker sweep on the same drift workload, with the
// digest of every measured configuration checked against the serial
// reference. BENCH_pipeline.json commits both kinds of rows side by side —
// "modeled/..." and "measured/..." entries in one github-action-benchmark
// compatible list — so the model-vs-reality gap is itself a tracked number.
//
// Honesty notes, in the artifact as fields rather than buried here:
//
//   - NumCPU/GOMAXPROCS are recorded per run. On a single-core host the
//     measured 8-worker and 1-worker configurations are the same machine
//     time-slicing, so ScalingVs1W is expected to be ~1x at NumCPU=1 and
//     to approach the modeled speedup as cores appear.
//   - Every measured point is the median of Reps timed repetitions after
//     Warmup discarded ones, all in-process: this box's run-to-run noise is
//     ~±8%, well above the effects being compared.
//   - The probe COUNT varies a fraction of a percent between repetitions
//     (exploration draws are consumed in scheduling order); the result SET
//     does not, which is what the digests verify.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"amri/internal/pipeline"
)

// PipelineBenchOptions configure the measured sweep.
type PipelineBenchOptions struct {
	// Seed fixes the workload (default 1).
	Seed uint64
	// Ticks is the horizon (default 300; Quick shrinks to 60).
	Ticks int64
	// Shards is the index sharding degree of every measured configuration
	// (default 8).
	Shards int
	// Workers are the probe pool sizes to measure (default 1, 2, 8).
	Workers []int
	// Reps is how many timed repetitions the median is taken over
	// (default 5; Quick halves it, min 3).
	Reps int
	// Warmup is how many untimed repetitions precede them (0 is valid —
	// profiling runs want it; the amribench flag defaults to 1).
	Warmup int
	// Quick shrinks the horizon ~5x and the rep count.
	Quick bool
}

func (o PipelineBenchOptions) fill() PipelineBenchOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Ticks == 0 {
		o.Ticks = 300
	}
	if o.Shards == 0 {
		o.Shards = 8
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 8}
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	// Warmup 0 is meaningful (profiling runs); the CLI owns the default of 1.
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Quick {
		o.Ticks /= 5
		if o.Reps > 3 {
			o.Reps = 3
		}
	}
	return o
}

// PipelinePoint is one measured configuration.
type PipelinePoint struct {
	Workers int `json:"workers"`
	// TuplesPerSec and ProbesPerSec are medians over the timed reps.
	TuplesPerSec float64 `json:"tuples_per_sec"`
	ProbesPerSec float64 `json:"probes_per_sec"`
	WallMS       float64 `json:"wall_ms_median"`
	// RepTuplesPerSec is every timed rep, slowest first — the artifact
	// shows its own spread.
	RepTuplesPerSec []float64 `json:"rep_tuples_per_sec"`
	Digest          string    `json:"digest"`
	Match           bool      `json:"digest_matches_serial"`
	// ScalingVs1W is this point over the sweep's 1-worker point — actual
	// parallel scaling, honest about NumCPU.
	ScalingVs1W float64 `json:"scaling_vs_1w"`
}

// BenchEntry is one github-action-benchmark data point
// (customBiggerIsBetter format: name/unit/value, free-form extra).
type BenchEntry struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Extra string  `json:"extra,omitempty"`
}

// PipelineBenchResult is the committed BENCH_pipeline.json payload. Entries
// is the github-action-benchmark consumable list (`jq .entries` in CI);
// the structured fields around it are what the bench gate compares.
type PipelineBenchResult struct {
	Schema     string        `json:"schema"`
	Workload   ShardWorkload `json:"workload"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Reps       int           `json:"reps"`
	Warmup     int           `json:"warmup"`

	SerialDigest string             `json:"serial_digest"`
	Measured     []PipelinePoint    `json:"measured"`
	Modeled      []ShardWorkerPoint `json:"modeled"`
	Entries      []BenchEntry       `json:"entries"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// measureOne times Warmup+Reps runs of one configuration and returns its
// point (scaling filled in by the caller).
func measureOne(o PipelineBenchOptions, workers int, ref string) (PipelinePoint, error) {
	pt := PipelinePoint{Workers: workers}
	so := ShardBenchOptions{Seed: o.Seed, Ticks: o.Ticks, Shards: o.Shards}
	var walls, tps, pps []float64
	for rep := 0; rep < o.Warmup+o.Reps; rep++ {
		var d shardDigest
		cfg := so.pipelineConfig(workers, o.Shards, false)
		cfg.Ticks = o.Ticks
		cfg.OnResult = d.add
		start := time.Now()
		res, err := pipeline.Run(cfg)
		if err != nil {
			return pt, fmt.Errorf("bench: pipeline %dw rep %d: %w", workers, rep, err)
		}
		wall := time.Since(start)
		pt.Digest = d.String()
		pt.Match = pt.Digest == ref
		if !pt.Match {
			return pt, fmt.Errorf("bench: pipeline %dw rep %d: digest %s != serial %s",
				workers, rep, pt.Digest, ref)
		}
		if rep < o.Warmup {
			continue
		}
		walls = append(walls, float64(wall.Microseconds())/1e3)
		tps = append(tps, float64(res.TuplesIngested)/wall.Seconds())
		pps = append(pps, float64(res.Probes)/wall.Seconds())
	}
	sort.Float64s(tps)
	pt.RepTuplesPerSec = tps
	pt.TuplesPerSec = median(tps)
	pt.ProbesPerSec = median(pps)
	pt.WallMS = median(walls)
	return pt, nil
}

// PipelineBench runs the measured sweep plus the modeled one, and packs
// both into github-action-benchmark entries.
func PipelineBench(o PipelineBenchOptions) (*PipelineBenchResult, error) {
	o = o.fill()

	// Serial reference: 1 worker, flat index — the same ground truth the
	// shard bench uses — with probe costs collected for the modeled rows.
	so := ShardBenchOptions{Seed: o.Seed, Ticks: o.Ticks, Shards: o.Shards}
	var ref shardDigest
	refCfg := so.pipelineConfig(1, 0, true)
	refCfg.Ticks = o.Ticks
	refCfg.OnResult = ref.add
	refRes, err := pipeline.Run(refCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: pipeline reference run: %w", err)
	}
	probes := 0
	for _, tick := range refRes.ProbeCosts {
		probes += len(tick)
	}
	out := &PipelineBenchResult{
		Schema: "entries: github-action-benchmark customBiggerIsBetter",
		Workload: ShardWorkload{
			Query:   "4-way equi-join, 60-tick window",
			Profile: "drift (Figure 6/7 workload)",
			Seed:    o.Seed,
			Ticks:   o.Ticks,
			Shards:  o.Shards,
			Tuples:  refRes.TuplesIngested,
			Probes:  probes,
			Results: refRes.Results,
		},
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Reps:         o.Reps,
		Warmup:       o.Warmup,
		SerialDigest: ref.String(),
	}

	// Modeled rows over the reference trace (the shard bench's model).
	for _, w := range o.Workers {
		out.Modeled = append(out.Modeled,
			modelWorkers(refRes.ProbeCosts, w, refRes.TuplesIngested, false))
	}
	if base := out.Modeled[0]; base.Workers == 1 && base.TuplesPerSec > 0 {
		for i := range out.Modeled {
			out.Modeled[i].Speedup = out.Modeled[i].TuplesPerSec / base.TuplesPerSec
		}
	}

	// Measured rows: the real pipeline across the worker sweep.
	var base1w float64
	for _, w := range o.Workers {
		pt, err := measureOne(o, w, out.SerialDigest)
		if err != nil {
			return nil, err
		}
		if w == 1 {
			base1w = pt.TuplesPerSec
		}
		out.Measured = append(out.Measured, pt)
	}
	if base1w > 0 {
		for i := range out.Measured {
			out.Measured[i].ScalingVs1W = out.Measured[i].TuplesPerSec / base1w
		}
	}

	out.Entries = out.buildEntries()
	return out, nil
}

// buildEntries renders every modeled and measured row as one
// github-action-benchmark point.
func (r *PipelineBenchResult) buildEntries() []BenchEntry {
	var es []BenchEntry
	for _, p := range r.Modeled {
		es = append(es, BenchEntry{
			Name:  fmt.Sprintf("modeled/deque/workers=%d/tuples_per_sec", p.Workers),
			Unit:  "tuples/sec",
			Value: p.TuplesPerSec,
			Extra: fmt.Sprintf("LPT schedule over traced probe costs; speedup_vs_1w=%.2fx", p.Speedup),
		})
	}
	for _, p := range r.Measured {
		es = append(es, BenchEntry{
			Name:  fmt.Sprintf("measured/deque/workers=%d/tuples_per_sec", p.Workers),
			Unit:  "tuples/sec",
			Value: p.TuplesPerSec,
			Extra: fmt.Sprintf("median of %d reps, num_cpu=%d, scaling_vs_1w=%.2fx, digest=%s",
				r.Reps, r.NumCPU, p.ScalingVs1W, p.Digest),
		})
	}
	return es
}

// Point returns the measured point for one pool size, if present.
func (r *PipelineBenchResult) Point(workers int) *PipelinePoint {
	for i := range r.Measured {
		if r.Measured[i].Workers == workers {
			return &r.Measured[i]
		}
	}
	return nil
}

// Check enforces the measured acceptance bar: every digest matched the
// serial reference.
func (r *PipelineBenchResult) Check() error {
	if len(r.Measured) == 0 {
		return fmt.Errorf("no measured points")
	}
	for _, p := range r.Measured {
		if !p.Match {
			return fmt.Errorf("digest mismatch at %d workers: %s != serial %s",
				p.Workers, p.Digest, r.SerialDigest)
		}
	}
	return nil
}

// Gate compares a fresh result against a committed baseline: the fresh run
// must pass Check, and the widest pool's throughput must not have regressed
// by more than maxRegression (fractional, e.g. 0.10) relative to the
// committed value. Absolute throughput is only comparable on the same
// setup (see setupDiff); on any other the comparison is skipped. The
// returned verdict says which of the two happened.
func (r *PipelineBenchResult) Gate(baseline *PipelineBenchResult, maxRegression float64) (verdict string, err error) {
	if err := r.Check(); err != nil {
		return "", err
	}
	fresh := r.Measured[len(r.Measured)-1]
	committed := baseline.Point(fresh.Workers)
	if committed == nil {
		return "", fmt.Errorf("committed baseline has no %d-worker point", fresh.Workers)
	}
	if diff := setupDiff(baseline.NumCPU, r.NumCPU, baseline.Workload, r.Workload); diff != "" {
		return "throughput comparison skipped, " + diff, nil
	}
	if fresh.TuplesPerSec < committed.TuplesPerSec*(1-maxRegression) {
		return "", fmt.Errorf("measured throughput regressed: %.0f tuples/sec vs committed %.0f (-%.0f%% bar)",
			fresh.TuplesPerSec, committed.TuplesPerSec, maxRegression*100)
	}
	return fmt.Sprintf("%.0f tuples/sec at %d workers vs committed %.0f, within the -%.0f%% bar",
		fresh.TuplesPerSec, fresh.Workers, committed.TuplesPerSec, maxRegression*100), nil
}

// setupDiff says why a fresh run's absolute numbers cannot be held against
// a committed baseline's — the baseline host had more CPUs, or the workload
// shape differs — or returns "" when they can.
func setupDiff(baseCPU, freshCPU int, base, fresh ShardWorkload) string {
	switch {
	case baseCPU > freshCPU:
		return fmt.Sprintf("setups differ: baseline num_cpu=%d, this host %d", baseCPU, freshCPU)
	case base.Ticks != fresh.Ticks || base.Seed != fresh.Seed || base.Shards != fresh.Shards:
		return fmt.Sprintf("setups differ: baseline seed/ticks/shards=%d/%d/%d, this run %d/%d/%d",
			base.Seed, base.Ticks, base.Shards, fresh.Seed, fresh.Ticks, fresh.Shards)
	}
	return ""
}

// WriteJSON writes the result as indented JSON.
func (r *PipelineBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadPipelineBench parses a committed BENCH_pipeline.json.
func ReadPipelineBench(rd io.Reader) (*PipelineBenchResult, error) {
	var r PipelineBenchResult
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing pipeline baseline: %w", err)
	}
	return &r, nil
}

// Summary renders the human-readable table.
func (r *PipelineBenchResult) Summary(w io.Writer) {
	fmt.Fprintf(w, "pipeline bench: %s, seed %d, %d ticks, %d shards, num_cpu=%d, median of %d reps\n",
		r.Workload.Query, r.Workload.Seed, r.Workload.Ticks, r.Workload.Shards, r.NumCPU, r.Reps)
	fmt.Fprintf(w, "%8s %14s %14s %10s %12s  %s\n",
		"workers", "tuples/sec", "probes/sec", "wall ms", "scaling", "digest")
	for _, p := range r.Measured {
		status := "MATCH"
		if !p.Match {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "%8d %14.0f %14.0f %10.1f %11.2fx  %s (%s)\n",
			p.Workers, p.TuplesPerSec, p.ProbesPerSec, p.WallMS, p.ScalingVs1W, p.Digest, status)
	}
	fmt.Fprintf(w, "modeled (LPT over traced costs):")
	for _, p := range r.Modeled {
		fmt.Fprintf(w, "  %dw=%.2fx", p.Workers, p.Speedup)
	}
	fmt.Fprintln(w)
}
