// bench_test.go holds one testing.B entry per paper table/figure plus the
// ablations, as required by DESIGN.md's experiment index. Benchmarks run in
// Quick mode (horizon ÷5) so `go test -bench=.` finishes in minutes; the
// full-scale regenerators live behind cmd/amribench. Headline ratios are
// emitted via b.ReportMetric so benchmark output doubles as a results
// summary.
package amri_test

import (
	"io"
	"runtime"
	"testing"

	"amri/internal/bench"
	"amri/internal/bitindex"
	"amri/internal/core"
	"amri/internal/engine"
	"amri/internal/pipeline"
)

func quickOpts() bench.Options {
	return bench.Options{Quick: true}
}

// BenchmarkFig6AssessmentMethods regenerates the assessment-method half of
// Figure 6: SRIA, CSRIA, DIA, CDIA-random and CDIA-highest all driving the
// AMRI bit index over the drifting workload.
func BenchmarkFig6AssessmentMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CDIAHighestOverSRIA, "pct-CDIAh-over-SRIA")
		b.ReportMetric(r.CDIAHighestOverCSRIA, "pct-CDIAh-over-CSRIA")
		if r.Results["AMRI/DIA"] != r.Results["AMRI/SRIA"] {
			b.Fatal("DIA must equal SRIA (shared code base)")
		}
	}
}

// BenchmarkFig6HashIndex regenerates the hash-baseline half of Figure 6:
// the k=1..7 access-module sweep against AMRI.
func BenchmarkFig6HashIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig6Hash(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AMRIGainOverBestHash, "pct-AMRI-over-best-hash")
	}
}

// BenchmarkFig7HeadToHead regenerates Figure 7: AMRI vs the best hash
// configuration vs the non-adapting bitmap.
func BenchmarkFig7HeadToHead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig7(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GainOverHash, "pct-AMRI-over-hash")
		b.ReportMetric(r.GainOverBitmap, "pct-AMRI-over-bitmap")
	}
}

// BenchmarkTable2 regenerates the Table II worked example and pins the two
// published index configurations.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table2(10000)
		if err != nil {
			b.Fatal(err)
		}
		if !r.CDIAConfig.Equal(bitindex.NewConfig(1, 1, 2)) {
			b.Fatalf("CDIA IC = %v, want IC[1,1,2]", r.CDIAConfig)
		}
		if !r.CSRIAConfig.Equal(bitindex.NewConfig(0, 1, 3)) {
			b.Fatalf("CSRIA IC = %v, want IC[0,1,3]", r.CSRIAConfig)
		}
	}
}

// BenchmarkCostModel regenerates the Eq. 1 validation: predicted vs
// measured bucket fan-out and scan sizes.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.CostModel(4096, 200, bitindex.NewConfig(5, 3, 4), 7)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range r.Rows {
			if row.MeasuredBuckets != row.PredictedBuckets {
				b.Fatalf("%v: fan-out %g != %g", row.Pattern, row.MeasuredBuckets, row.PredictedBuckets)
			}
			if row.TupleErrorPercent > worst {
				worst = row.TupleErrorPercent
			}
		}
		b.ReportMetric(worst, "pct-worst-tuple-error")
	}
}

// BenchmarkDirectoryAblation runs ablation A1 (dense vs sparse directory).
func BenchmarkDirectoryAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.DirectoryAblation(2048, 100, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerAblation runs ablation A2 (greedy vs exhaustive).
func BenchmarkOptimizerAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.OptimizerAblation(200, 13)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanRatio, "greedy-over-exhaustive-CD")
	}
}

// BenchmarkExplorationAblation runs ablation A3 (exploration rate sweep).
func BenchmarkExplorationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.ExploreAblation(quickOpts(), []float64{0, 0.04, 0.25})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkEngineTick measures raw engine throughput (simulated ticks per
// second of wall clock) for the AMRI system — the substrate's own speed.
func BenchmarkEngineTick(b *testing.B) {
	run := engine.DefaultRunConfig()
	run.MaxTicks = 60
	run.WarmupTicks = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := engine.New(run, engine.AMRI(engine.AssessCDIAHighest))
		if err != nil {
			b.Fatal(err)
		}
		r := e.Run()
		if r.TotalResults == 0 && i == 0 {
			b.Log("note: no results in 60-tick window (warmup-dominated)")
		}
	}
}

// BenchmarkReportRendering exercises the full report path of every
// registered experiment in quick mode, discarding the output — a smoke
// benchmark that keeps every regenerator runnable.
func BenchmarkReportRendering(b *testing.B) {
	light := map[string]bool{"table2": true, "costmodel": true, "abl-opt": true, "abl-dir": true}
	for i := 0; i < b.N; i++ {
		for _, e := range bench.Registry() {
			if !light[e.ID] {
				continue // heavy engine experiments have dedicated benchmarks above
			}
			if err := e.Run(quickOpts(), io.Discard); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// BenchmarkPipelineWallClock is the profiling vehicle behind `make
// profile`: the sharded pipeline at the configuration benchmark/workloads.go
// fixes for its drift workload (8 shards, min(2, nproc) workers, mailbox cap
// 64, explore 0.1, 300 ticks, seed 1), so cpu/mutex/mem profiles are of the
// measured path. Its tuples/s is not a claimable number — throughput claims
// come from `bash benchmark/run.sh`, parent vs change on one host.
func BenchmarkPipelineWallClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pipeline.Run(pipeline.Config{
			Seed:          1,
			Ticks:         300,
			Method:        core.MethodCDIAHighest,
			AutoTuneEvery: 2000,
			Explore:       0.1,
			ProbeWorkers:  min(2, runtime.NumCPU()),
			Shards:        8,
			MailboxCap:    64,
			ShedPolicy:    pipeline.PolicyBlock,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.TuplesIngested)/r.Wall.Seconds(), "tuples/s")
	}
}

// BenchmarkMultiQueryShared measures the shared-states extension workload.
func BenchmarkMultiQueryShared(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.MultiQuery(100, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MemSavingPercent, "pct-mem-saved")
	}
}

// BenchmarkMigrationAblation runs ablation A4 in quick mode.
func BenchmarkMigrationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.MigrationAblation(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("mode sweep incomplete")
		}
	}
}
