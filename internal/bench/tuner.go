package bench

// Tuner bench: the retune-under-load companion to the dispatch bench. Two
// kinds of rows land in BENCH_tuner.json:
//
//   - "thrash/..." rows are DETERMINISTIC controller-level runs: the v1
//     gain-only policy against the v2 migration-cost-aware controller on a
//     synthetic oscillating access-pattern mix (the workload drift flips
//     which attribute is hot every assessment window). The v1 policy chases
//     the flip every window; the v2 controller adopts an index once and
//     then holds — cooldown, the flip-flop guard and drift-shrunken
//     amortization horizons each block a class of churn. These values are
//     exact and machine-independent.
//
//   - "measured/..." rows time the real pipeline on the drift workload
//     with live tuning, sampling per-tick wall latency through
//     Config.OnTickEnd. The headline is p99 tick latency with retuning
//     active ("v2") versus the same run with tuning effectively off
//     ("notune"): retuning under live traffic must not dent tail latency.
//     Join-result digests are checked across both — the tuner moves access
//     structures, never results.
//
// Honesty notes, mirrored in the artifact:
//
//   - The headline p99 is the BEST timed rep's p99 (every rep's p99 is
//     recorded alongside). On a small shared box, interference — another
//     process, GC of a neighbour, a scheduler hiccup — only ever adds
//     latency, so the fastest rep is the closest estimate of the intrinsic
//     tail; medians and pooled quantiles both let one contaminated rep
//     swing the ratio ±25% run to run. The acceptance ratio (MaxP99Ratio)
//     is still deliberately generous, and the thrash rows — which carry
//     the PR's actual claim — are exact counts.
//   - NumCPU/GOMAXPROCS are recorded; the gate only compares absolute
//     latencies against a baseline from a host with no more CPUs.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"amri/internal/bitindex"
	"amri/internal/cost"
	"amri/internal/pipeline"
	"amri/internal/query"
	"amri/internal/tuner"
)

// TunerBenchOptions configure the suite.
type TunerBenchOptions struct {
	// Seed fixes the workload (default 1).
	Seed uint64
	// Ticks is the measured horizon (default 300; Quick shrinks to 60).
	Ticks int64
	// Shards stripes every state's index so migrations drain incrementally
	// (default 8).
	Shards int
	// Workers sizes the probe pool (default 4).
	Workers int
	// AutoTuneEvery is the live-tuning cadence in probes for the tuning
	// policies (default 2000, the production cadence).
	AutoTuneEvery uint64
	// Reps / Warmup: timed and discarded repetitions (defaults 5 / CLI 1).
	Reps   int
	Warmup int
	// Quick shrinks the horizon ~5x and the rep count.
	Quick bool
}

func (o TunerBenchOptions) fill() TunerBenchOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Ticks == 0 {
		o.Ticks = 300
	}
	if o.Shards == 0 {
		o.Shards = 8
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.AutoTuneEvery == 0 {
		o.AutoTuneEvery = 2000
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
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

// TunerThrashPoint is one deterministic oscillation run.
type TunerThrashPoint struct {
	// Policy is "legacy" (v1 gain-only) or "v2" (migration-cost-aware).
	Policy string `json:"policy"`
	// Passes is how many tuning passes the oscillating mix drove.
	Passes int `json:"passes"`
	// Migrations counts adopted proposals; FlipFlops the migrations after
	// the first adoption — pure churn, since the mix only oscillates.
	Migrations int `json:"migrations"`
	FlipFlops  int `json:"flip_flops"`
	// Holds breaks down why the v2 controller kept the configuration.
	CooldownHolds int `json:"cooldown_holds"`
	FlipFlopHolds int `json:"flip_flop_holds"`
	Uneconomical  int `json:"uneconomical"`
}

// TunerLoadPoint is one measured pipeline configuration.
type TunerLoadPoint struct {
	// Policy is "notune" (tuning cadence beyond the horizon) or "v2" (the
	// pipeline's migration-cost-aware controller).
	Policy string `json:"policy"`
	// P99TickMicros / MeanTickMicros come from the best timed rep: on a
	// shared box interference is strictly additive, so the fastest rep is
	// the closest estimate of the intrinsic per-tick latency distribution.
	P99TickMicros  float64 `json:"p99_tick_us"`
	MeanTickMicros float64 `json:"mean_tick_us"`
	// RepP99Micros is every timed rep's own p99, sorted ascending (the
	// spread documents the interference the best-rep statistic sheds).
	RepP99Micros []float64 `json:"rep_p99_us"`
	// Retunes and the tuner counters come from the last timed rep (they
	// are identical across reps up to probe-scheduling noise).
	Retunes    int `json:"retunes"`
	TunerHolds int `json:"tuner_holds"`
	// PredictedMigCost / RealizedMigCost audit the what-if ledger end to
	// end on a live run.
	PredictedMigCost float64 `json:"predicted_mig_cost"`
	RealizedMigCost  float64 `json:"realized_mig_cost"`
	Digest           string  `json:"digest"`
	Match            bool    `json:"digest_matches_ref"`
}

// TunerBenchResult is the committed BENCH_tuner.json payload; Entries is
// the github-action-benchmark consumable list.
type TunerBenchResult struct {
	Schema     string        `json:"schema"`
	Workload   ShardWorkload `json:"workload"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Reps       int           `json:"reps"`
	Warmup     int           `json:"warmup"`

	RefDigest string             `json:"ref_digest"`
	Thrash    []TunerThrashPoint `json:"thrash"`
	Measured  []TunerLoadPoint   `json:"measured"`
	Entries   []BenchEntry       `json:"entries"`
}

// thrashRun drives one controller through an oscillating mix and counts
// what it does. The regime is probe-sparse (searches rare relative to the
// stored state), where chasing the oscillation costs more than it earns —
// exactly where the v1 policy thrashes.
func thrashRun(ctl *tuner.Controller, passes int) TunerThrashPoint {
	statsA := []cost.APStat{{P: query.PatternOf(0), Freq: 0.9}, {P: query.PatternOf(1), Freq: 0.1}}
	statsB := []cost.APStat{{P: query.PatternOf(1), Freq: 0.9}, {P: query.PatternOf(0), Freq: 0.1}}
	cur := bitindex.NewConfig(0, 0)
	pt := TunerThrashPoint{Passes: passes}
	for i := 0; i < passes; i++ {
		stats := statsA
		if i%2 == 1 {
			stats = statsB
		}
		pr, err := ctl.Propose(cur, stats, 8000)
		if err != nil {
			// Unreachable with these fixed inputs; surface loudly if the
			// optimizer ever starts rejecting them.
			panic(fmt.Sprintf("bench: thrash propose: %v", err))
		}
		if pr.Migrate() {
			if pt.Migrations > 0 {
				pt.FlipFlops++
			}
			pt.Migrations++
			cur = pr.To
			// The drain completes before the next assessment window.
			ctl.RecordDrain(8000, 16000, true)
		}
	}
	sum := ctl.Summary()
	pt.CooldownHolds = sum.CooldownHolds
	pt.FlipFlopHolds = sum.FlipFlopHolds
	pt.Uneconomical = sum.Uneconomical
	return pt
}

// thrashParams is the probe-sparse cost table the oscillation runs under.
func thrashParams() cost.Params {
	return cost.Params{LambdaD: 100, LambdaR: 0.1, Ch: 0.001, Cc: 1, Window: 60}
}

// measureTunerLoad times Warmup+Reps pipeline runs with live tuning on
// ("v2") or effectively off ("notune"), sampling per-tick wall latency.
func measureTunerLoad(o TunerBenchOptions, policy, ref string) (TunerLoadPoint, string, error) {
	pt := TunerLoadPoint{Policy: policy}
	so := ShardBenchOptions{Seed: o.Seed, Ticks: o.Ticks, Shards: o.Shards}
	var p99s, means []float64
	for rep := 0; rep < o.Warmup+o.Reps; rep++ {
		cfg := so.pipelineConfig(o.Workers, o.Shards, false)
		cfg.Ticks = o.Ticks
		cfg.AutoTuneEvery = o.AutoTuneEvery
		if policy == "notune" {
			// Cadence past any plausible probe count: live tuning never
			// fires (AutoTuneEvery 0 means "default", not "off").
			cfg.AutoTuneEvery = 1 << 62
		}
		var d shardDigest
		cfg.OnResult = d.add
		ticks := make([]float64, 0, o.Ticks)
		last := time.Now()
		cfg.OnTickEnd = func(int64) {
			now := time.Now()
			ticks = append(ticks, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
		}
		last = time.Now()
		res, err := pipeline.Run(cfg)
		if err != nil {
			return pt, "", fmt.Errorf("bench: tuner %s rep %d: %w", policy, rep, err)
		}
		pt.Digest = d.String()
		if ref == "" {
			ref = pt.Digest
		}
		pt.Match = pt.Digest == ref
		if !pt.Match {
			return pt, ref, fmt.Errorf("bench: tuner %s rep %d: digest %s != ref %s",
				policy, rep, pt.Digest, ref)
		}
		if rep < o.Warmup {
			continue
		}
		sort.Float64s(ticks)
		if len(ticks) > 0 {
			var sum float64
			for _, v := range ticks {
				sum += v
			}
			means = append(means, sum/float64(len(ticks)))
			p99s = append(p99s, ticks[int(0.99*float64(len(ticks)-1))])
		}
		pt.Retunes = res.Retunes
		pt.TunerHolds = res.Tuner.Holds()
		pt.PredictedMigCost = res.Tuner.PredictedMigCost
		pt.RealizedMigCost = res.Tuner.RealizedMigCost
	}
	sort.Float64s(p99s)
	sort.Float64s(means)
	pt.RepP99Micros = append([]float64(nil), p99s...)
	if len(p99s) > 0 {
		pt.P99TickMicros = p99s[0]
		pt.MeanTickMicros = means[0]
	}
	return pt, ref, nil
}

// TunerBench runs the deterministic thrash A/B plus the measured
// retune-under-load sweep.
func TunerBench(o TunerBenchOptions) (*TunerBenchResult, error) {
	o = o.fill()
	out := &TunerBenchResult{
		Schema: "entries: github-action-benchmark customBiggerIsBetter",
		Workload: ShardWorkload{
			Query:   "4-way equi-join, 60-tick window",
			Profile: "drift (Figure 6/7 workload)",
			Seed:    o.Seed,
			Ticks:   o.Ticks,
			Shards:  o.Shards,
		},
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       o.Reps,
		Warmup:     o.Warmup,
	}

	// Deterministic thrash A/B. The v2 knobs use the core's DriftSense
	// default (4) on a horizon of four assessment windows, with Cooldown 1
	// — one pass, half the oscillation period — so every hold past the
	// first is earned by economics or the flip-flop guard, not by waiting.
	const passes = 24
	p := thrashParams()
	legacy := &tuner.Controller{Params: p, Budget: 4, MinGain: 0.02, UseExhaustive: true}
	v2 := &tuner.Controller{Params: p, Budget: 4, MinGain: 0.02, UseExhaustive: true,
		Horizon: 40, DriftSense: 4, Cooldown: 1, DrainRate: 64}
	lp := thrashRun(legacy, passes)
	lp.Policy = "legacy"
	vp := thrashRun(v2, passes)
	vp.Policy = "v2"
	out.Thrash = []TunerThrashPoint{lp, vp}

	// Measured retune-under-load sweep. The notune run defines the digest
	// reference: tuner policy must never change the result set.
	ref := ""
	for _, policy := range []string{"notune", "v2"} {
		pt, r, err := measureTunerLoad(o, policy, ref)
		if err != nil {
			return nil, err
		}
		ref = r
		out.Measured = append(out.Measured, pt)
	}
	out.RefDigest = ref

	out.Entries = out.buildEntries()
	return out, nil
}

// buildEntries renders every row as one github-action-benchmark point.
// Thrash counts are encoded as "clean passes" (passes without a flip-flop
// migration) so bigger stays better for the chart.
func (r *TunerBenchResult) buildEntries() []BenchEntry {
	var es []BenchEntry
	for _, t := range r.Thrash {
		es = append(es, BenchEntry{
			Name:  fmt.Sprintf("thrash/%s/clean_passes", t.Policy),
			Unit:  "passes",
			Value: float64(t.Passes - t.FlipFlops),
			Extra: fmt.Sprintf("migrations=%d flip_flops=%d holds: cooldown=%d flipflop=%d uneconomical=%d (deterministic)",
				t.Migrations, t.FlipFlops, t.CooldownHolds, t.FlipFlopHolds, t.Uneconomical),
		})
	}
	for _, m := range r.Measured {
		es = append(es, BenchEntry{
			Name:  fmt.Sprintf("measured/%s/ticks_per_sec_p99", m.Policy),
			Unit:  "ticks/sec",
			Value: ticksPerSec(m.P99TickMicros),
			Extra: fmt.Sprintf("p99_tick_us=%.0f mean_tick_us=%.0f retunes=%d holds=%d num_cpu=%d digest=%s",
				m.P99TickMicros, m.MeanTickMicros, m.Retunes, m.TunerHolds, r.NumCPU, m.Digest),
		})
	}
	return es
}

func ticksPerSec(tickMicros float64) float64 {
	if tickMicros <= 0 {
		return 0
	}
	return 1e6 / tickMicros
}

// Point returns the measured point for one policy, if present.
func (r *TunerBenchResult) Point(policy string) *TunerLoadPoint {
	for i := range r.Measured {
		if r.Measured[i].Policy == policy {
			return &r.Measured[i]
		}
	}
	return nil
}

// Check enforces the acceptance bars:
//
//   - the legacy policy thrashes on the oscillating mix (>= 2 flip-flop
//     migrations) and the v2 controller does not (exactly 0 after its
//     first adoption) — the PR's structural claim, on exact counts;
//   - every measured digest matched the reference (retuning never changes
//     the result set);
//   - v2 retuning under load keeps p99 tick latency within maxP99Ratio of
//     the no-tuning run.
func (r *TunerBenchResult) Check(maxP99Ratio float64) error {
	var lp, vp *TunerThrashPoint
	for i := range r.Thrash {
		switch r.Thrash[i].Policy {
		case "legacy":
			lp = &r.Thrash[i]
		case "v2":
			vp = &r.Thrash[i]
		}
	}
	if lp == nil || vp == nil {
		return fmt.Errorf("thrash rows missing")
	}
	if lp.FlipFlops < 2 {
		return fmt.Errorf("legacy policy flip-flopped only %d times on the oscillating mix; the A/B baseline lost its thrash", lp.FlipFlops)
	}
	if vp.FlipFlops != 0 {
		return fmt.Errorf("v2 controller flip-flopped %d times on the oscillating mix, want 0", vp.FlipFlops)
	}
	for _, m := range r.Measured {
		if !m.Match {
			return fmt.Errorf("digest mismatch at policy %s: %s != ref %s", m.Policy, m.Digest, r.RefDigest)
		}
	}
	base, v2 := r.Point("notune"), r.Point("v2")
	if base == nil || v2 == nil {
		return fmt.Errorf("measured rows missing")
	}
	if base.P99TickMicros > 0 && v2.P99TickMicros > base.P99TickMicros*maxP99Ratio {
		return fmt.Errorf("v2 retuning dents p99 tick latency: %.0fus vs %.0fus without tuning (%.2fx > %.2fx bar)",
			v2.P99TickMicros, base.P99TickMicros, v2.P99TickMicros/base.P99TickMicros, maxP99Ratio)
	}
	return nil
}

// Gate compares a fresh result against the committed baseline: the fresh
// run must pass Check(maxP99Ratio), and v2 p99 tick latency must not have
// regressed by more than maxRegression relative to the committed value.
// Absolute latencies are only compared on the same setup (see setupDiff);
// otherwise the tuning-on/tuning-off ratio is compared, with double the
// allowance (it compounds two fresh measurements' noise). The returned
// verdict says which comparison ran.
func (r *TunerBenchResult) Gate(baseline *TunerBenchResult, maxP99Ratio, maxRegression float64) (verdict string, err error) {
	if err := r.Check(maxP99Ratio); err != nil {
		return "", err
	}
	fresh, freshBase := r.Point("v2"), r.Point("notune")
	committed, commBase := baseline.Point("v2"), baseline.Point("notune")
	if committed == nil {
		return "", fmt.Errorf("committed baseline has no v2 point")
	}
	if diff := setupDiff(baseline.NumCPU, r.NumCPU, baseline.Workload, r.Workload); diff != "" {
		if commBase == nil || freshBase.P99TickMicros <= 0 || commBase.P99TickMicros <= 0 || committed.P99TickMicros <= 0 {
			return "p99 comparison skipped, " + diff, nil
		}
		freshRatio := fresh.P99TickMicros / freshBase.P99TickMicros
		commRatio := committed.P99TickMicros / commBase.P99TickMicros
		if freshRatio > commRatio*(1+2*maxRegression) {
			return "", fmt.Errorf("v2/notune p99 ratio regressed: %.2fx vs committed %.2fx (+%.0f%% bar; %s)",
				freshRatio, commRatio, 2*maxRegression*100, diff)
		}
		return fmt.Sprintf("absolute p99 comparison skipped, %s; v2/notune p99 ratio %.2fx vs committed %.2fx, within the +%.0f%% bar",
			diff, freshRatio, commRatio, 2*maxRegression*100), nil
	}
	if fresh.P99TickMicros > committed.P99TickMicros*(1+maxRegression) {
		return "", fmt.Errorf("v2 p99 tick latency regressed: %.0fus vs committed %.0fus (+%.0f%% bar)",
			fresh.P99TickMicros, committed.P99TickMicros, maxRegression*100)
	}
	return fmt.Sprintf("v2 p99 tick %.0fus vs committed %.0fus, within the +%.0f%% bar",
		fresh.P99TickMicros, committed.P99TickMicros, maxRegression*100), nil
}

// WriteJSON writes the result as indented JSON.
func (r *TunerBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadTunerBench parses a committed BENCH_tuner.json.
func ReadTunerBench(rd io.Reader) (*TunerBenchResult, error) {
	var r TunerBenchResult
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing tuner baseline: %w", err)
	}
	return &r, nil
}

// Summary renders the human-readable table.
func (r *TunerBenchResult) Summary(w io.Writer) {
	fmt.Fprintf(w, "tuner bench: %s, seed %d, %d ticks, %d shards, num_cpu=%d, best of %d reps\n",
		r.Workload.Query, r.Workload.Seed, r.Workload.Ticks, r.Workload.Shards, r.NumCPU, r.Reps)
	fmt.Fprintf(w, "thrash (oscillating mix, %d passes, deterministic):\n", passesOf(r.Thrash))
	for _, t := range r.Thrash {
		fmt.Fprintf(w, "  %-7s migrations=%d flip_flops=%d holds: cooldown=%d flipflop=%d uneconomical=%d\n",
			t.Policy, t.Migrations, t.FlipFlops, t.CooldownHolds, t.FlipFlopHolds, t.Uneconomical)
	}
	fmt.Fprintf(w, "measured (per-tick wall latency under live traffic):\n")
	fmt.Fprintf(w, "  %-7s %12s %12s %8s %8s %10s %10s  %s\n",
		"policy", "p99 us", "mean us", "retunes", "holds", "predCost", "realCost", "digest")
	for _, m := range r.Measured {
		status := "MATCH"
		if !m.Match {
			status = "MISMATCH"
		}
		fmt.Fprintf(w, "  %-7s %12.0f %12.0f %8d %8d %10.0f %10.0f  %s (%s)\n",
			m.Policy, m.P99TickMicros, m.MeanTickMicros, m.Retunes, m.TunerHolds,
			m.PredictedMigCost, m.RealizedMigCost, m.Digest, status)
	}
}

func passesOf(ts []TunerThrashPoint) int {
	if len(ts) == 0 {
		return 0
	}
	return ts[0].Passes
}
