package bench

import (
	"strings"
	"testing"
)

// The gate tests run Gate over synthetic results — no pipeline run — so every
// branch the CI bench-gate depends on is pinned: what fails it, what passes
// it, and what it declines to compare (and says so).

var gateWorkload = ShardWorkload{Seed: 1, Ticks: 300, Shards: 8}

// gateCase is one Gate outcome: wantErr and wantVerdict are substrings of
// the returned error / verdict ("" wantErr means the gate must pass).
type gateCase struct {
	name        string
	wantErr     string
	wantVerdict string
}

func (c gateCase) check(t *testing.T, verdict string, err error) {
	t.Helper()
	if c.wantErr == "" {
		if err != nil {
			t.Fatalf("gate failed: %v", err)
		}
		if !strings.Contains(verdict, c.wantVerdict) {
			t.Errorf("verdict %q does not mention %q", verdict, c.wantVerdict)
		}
		return
	}
	if err == nil {
		t.Fatalf("gate passed (%q), want error mentioning %q", verdict, c.wantErr)
	}
	if !strings.Contains(err.Error(), c.wantErr) {
		t.Errorf("error %q does not mention %q", err, c.wantErr)
	}
}

func pipelineResult(numCPU int, w ShardWorkload, tuplesPerSec ...float64) *PipelineBenchResult {
	r := &PipelineBenchResult{NumCPU: numCPU, Workload: w, SerialDigest: "d"}
	for i, tps := range tuplesPerSec {
		r.Measured = append(r.Measured, PipelinePoint{Workers: 1 << i, TuplesPerSec: tps, Digest: "d", Match: true})
	}
	return r
}

func TestPipelineBenchGate(t *testing.T) {
	committed := pipelineResult(2, gateWorkload, 30000, 40000)
	quick := gateWorkload
	quick.Ticks = 60
	mismatch := pipelineResult(2, gateWorkload, 30000, 40000)
	mismatch.Measured[0].Match = false
	mismatch.Measured[0].Digest = "x"

	for _, tc := range []struct {
		gateCase
		fresh, base *PipelineBenchResult
	}{
		{gateCase{name: "digest mismatch fails", wantErr: "digest mismatch at 1 workers"}, mismatch, committed},
		{gateCase{name: "no measured points fails", wantErr: "no measured points"}, pipelineResult(2, gateWorkload), committed},
		{gateCase{name: "regression past the bar fails", wantErr: "throughput regressed: 35000 tuples/sec vs committed 40000"},
			pipelineResult(2, gateWorkload, 30000, 35000), committed},
		{gateCase{name: "within the bar passes", wantVerdict: "37000 tuples/sec at 2 workers vs committed 40000"},
			pipelineResult(2, gateWorkload, 30000, 37000), committed},
		{gateCase{name: "only the widest pool is barred", wantVerdict: "within the -10% bar"},
			pipelineResult(2, gateWorkload, 1000, 40000), committed},
		{gateCase{name: "bigger baseline host skips", wantVerdict: "comparison skipped, setups differ: baseline num_cpu=8, this host 2"},
			pipelineResult(2, gateWorkload, 30000, 1000), pipelineResult(8, gateWorkload, 30000, 40000)},
		{gateCase{name: "smaller baseline host compares", wantErr: "throughput regressed"},
			pipelineResult(8, gateWorkload, 30000, 1000), committed},
		{gateCase{name: "quick horizon skips", wantVerdict: "comparison skipped, setups differ: baseline seed/ticks/shards=1/300/8, this run 1/60/8"},
			pipelineResult(2, quick, 30000, 1000), committed},
		{gateCase{name: "missing committed point errors", wantErr: "no 2-worker point"},
			pipelineResult(2, gateWorkload, 30000, 40000), pipelineResult(2, gateWorkload, 30000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdict, err := tc.fresh.Gate(tc.base, 0.10)
			tc.check(t, verdict, err)
		})
	}
}

func tunerResult(numCPU int, w ShardWorkload, notuneP99, v2P99 float64) *TunerBenchResult {
	return &TunerBenchResult{
		NumCPU: numCPU, Workload: w, RefDigest: "d",
		Thrash: []TunerThrashPoint{
			{Policy: "legacy", Passes: 24, Migrations: 24, FlipFlops: 23},
			{Policy: "v2", Passes: 24, Migrations: 1},
		},
		Measured: []TunerLoadPoint{
			{Policy: "notune", P99TickMicros: notuneP99, Digest: "d", Match: true},
			{Policy: "v2", P99TickMicros: v2P99, Digest: "d", Match: true},
		},
	}
}

func TestTunerBenchGate(t *testing.T) {
	committed := tunerResult(2, gateWorkload, 5000, 5500)
	quick := gateWorkload
	quick.Ticks = 60
	edit := func(f func(*TunerBenchResult)) *TunerBenchResult {
		r := tunerResult(2, gateWorkload, 5000, 5500)
		f(r)
		return r
	}

	for _, tc := range []struct {
		gateCase
		fresh, base *TunerBenchResult
	}{
		{gateCase{name: "digest mismatch fails", wantErr: "digest mismatch at policy v2"},
			edit(func(r *TunerBenchResult) { r.Measured[1].Match = false }), committed},
		{gateCase{name: "v2 thrash fails", wantErr: "v2 controller flip-flopped 3 times"},
			edit(func(r *TunerBenchResult) { r.Thrash[1].FlipFlops = 3 }), committed},
		{gateCase{name: "tame baseline fails", wantErr: "lost its thrash"},
			edit(func(r *TunerBenchResult) { r.Thrash[0].FlipFlops = 1 }), committed},
		{gateCase{name: "missing measured row fails", wantErr: "measured rows missing"},
			edit(func(r *TunerBenchResult) { r.Measured = r.Measured[1:] }), committed},
		{gateCase{name: "p99 past the notune ratio fails", wantErr: "dents p99 tick latency"},
			tunerResult(2, gateWorkload, 5000, 6300), committed},
		{gateCase{name: "regression past the bar fails", wantErr: "p99 tick latency regressed: 6100us vs committed 5500us"},
			tunerResult(2, gateWorkload, 5000, 6100), committed},
		{gateCase{name: "within the bar passes", wantVerdict: "v2 p99 tick 6000us vs committed 5500us"},
			tunerResult(2, gateWorkload, 5000, 6000), committed},
		{gateCase{name: "bigger baseline host compares the ratio", wantVerdict: "absolute p99 comparison skipped, setups differ: baseline num_cpu=8, this host 2; v2/notune p99 ratio 1.10x vs committed 1.10x"},
			tunerResult(2, gateWorkload, 50000, 55000), tunerResult(8, gateWorkload, 5000, 5500)},
		{gateCase{name: "quick horizon compares the ratio", wantVerdict: "setups differ: baseline seed/ticks/shards=1/300/8, this run 1/60/8; v2/notune p99 ratio"},
			tunerResult(2, quick, 900, 1000), committed},
		{gateCase{name: "ratio regression fails and names the skip", wantErr: "v2/notune p99 ratio regressed: 1.20x vs committed 0.90x (+20% bar; setups differ"},
			tunerResult(2, quick, 1000, 1200), tunerResult(2, gateWorkload, 5000, 4500)},
		{gateCase{name: "baseline without notune skips", wantVerdict: "p99 comparison skipped, setups differ"},
			tunerResult(2, quick, 1000, 1200), edit(func(r *TunerBenchResult) { r.Measured = r.Measured[1:] })},
		{gateCase{name: "missing committed point errors", wantErr: "no v2 point"},
			tunerResult(2, gateWorkload, 5000, 5500), edit(func(r *TunerBenchResult) { r.Measured = r.Measured[:1] })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdict, err := tc.fresh.Gate(tc.base, 1.25, 0.10)
			tc.check(t, verdict, err)
		})
	}
}
