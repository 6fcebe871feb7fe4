package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"amri/internal/assess"
	"amri/internal/bitindex"
	"amri/internal/cost"
	"amri/internal/hh"
	"amri/internal/pipeline"
	"amri/internal/tuner"
	"amri/internal/tuple"
)

// traceTicks is the traced run's horizon: a third of the end-to-end one.
func (w workload) traceTicks() int64 { return w.ticks / 3 }

// sink keeps measured calls' results alive so the compiler cannot drop them.
var sink float64

// measureLayers is the traced run. It measures every layer from outside:
// T, the traced replay driver; P, the real pipeline through its hooks, the
// storage decorator and its Result; I, isolated replays of inputs recorded
// during T. Digest mismatches and violated guards are recorded on rep.
func measureLayers(w workload, seed uint64, rep *report) error {
	ticks := w.traceTicks()
	ms := newMetricSet(layerMetrics)
	rep.metrics = ms

	// The untraced replay is the reference digest for this horizon, the
	// single-threaded baseline of the same job, and the tracing-off side of
	// trace.overhead_share.
	ref, err := replay(w, seed, ticks, nil)
	if err != nil {
		return err
	}
	rep.Reference = ref.digest.String()
	tr := newTracer()
	tres, err := replay(w, seed, ticks, tr)
	if err != nil {
		return err
	}
	rep.Ticks = ticks
	rep.Attempted += tres.tuples
	if got := tres.digest.String(); got != rep.Reference {
		rep.fail(tres.tuples, "traced replay digest %s != reference %s", got, rep.Reference)
	}
	if err := tr.writeFile(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}
	traceMetrics(ms, tr, tres, ref)
	isolatedMetrics(ms, tres, w.query().States[0].NumAttrs(), seed)

	// P: the real pipeline at one worker and at two.
	var runs [2]*pipelineRun
	for i := range runs {
		pr, err := runPipeline(w, seed, runOptions{ticks: ticks, workers: i + 1, timeStore: true})
		if err != nil {
			return err
		}
		rep.Attempted += pr.res.TuplesIngested
		if pr.digest != rep.Reference {
			rep.fail(pr.res.TuplesIngested, "pipeline digest at %d workers %s != reference %s", i+1, pr.digest, rep.Reference)
		}
		rep.Failed += pr.failedTuples()
		runs[i] = pr
	}
	std := runs[probeWorkers()-1]
	rep.RetunesPerTuple = ratio(float64(std.res.Retunes), float64(std.res.TuplesIngested))
	if err := pipelineMetrics(ms, w, runs, std, ref); err != nil {
		return err
	}
	storageMetrics(ms, std)
	if w.durable {
		if err := crashRecover(w, seed, ticks, rep); err != nil {
			return err
		}
	}
	rep.info("traced replay: %d ticks, %d tuples, %d probes, %d results, wall %.3f s (untraced %.3f s)",
		ticks, tres.tuples, tres.probes, tres.digest.count(), tres.wall.Seconds(), ref.wall.Seconds())
	rep.info("pipeline probes %d (1w) vs %d (2w), retunes %d vs %d: exploration draws are consumed in scheduling order",
		runs[0].res.Probes, runs[1].res.Probes, runs[0].res.Retunes, runs[1].res.Retunes)
	checkIntent(w, ms, rep, tres.digest.count())
	return ms.complete()
}

// traceMetrics derives the T metrics from the traced replay's spans.
func traceMetrics(ms *metricSet, tr *tracer, tres, ref *replayResult) {
	self := tr.selfTimes()
	runNS := float64(tr.total[slotRun].busy)
	tuples, probes := float64(tres.tuples), float64(tres.probes)

	ms.set("stream.tick_ns_per_tuple", ratio(float64(tr.total[slotStreamTick].busy), tuples))
	ms.set("tuple.extend_ns_per_match", tr.nsPer(slotExtend))
	ms.set("window.add_ns_per_tuple", tr.nsPer(slotWindowAdd))
	ms.set("window.expire_ns_per_tuple", ratio(float64(self[slotWindowExpire]), float64(tr.total[slotWindowExpire].count)))

	// Inserts split by whether an incremental migration was draining: the
	// drain's bounded step rides on the insert path.
	ins, mig := tr.total[slotInsert], tr.insertMg
	quiet := ratio(float64(ins.busy-mig.busy), float64(ins.count-mig.count))
	ms.set("bitindex.insert_ns_per_op", quiet)
	drain := 0.0
	if mig.count > 0 {
		drain = float64(mig.busy)/float64(mig.count) - quiet
	}
	ms.set("bitindex.drain_ns_per_insert", drain)
	ms.set("bitindex.delete_ns_per_op", tr.nsPer(slotDelete))

	ms.set("bitindex.search_ns_per_probe", tr.search.mean())
	ms.set("bitindex.search_ns_p99", tr.search.quantile(0.99))
	for k := range tr.searchW {
		ms.set(fmt.Sprintf("bitindex.search_ns_per_probe.w%d", k), tr.searchW[k].mean())
	}
	ms.set("bitindex.buckets_per_probe", ratio(float64(tres.search.Buckets), probes))
	ms.set("bitindex.hashes_per_probe", ratio(float64(tres.search.Hashes), probes))
	ms.set("bitindex.candidates_per_probe", ratio(float64(tres.search.Tuples), probes))
	ms.set("bitindex.search_ns_per_candidate", ratio(float64(tr.total[slotSearch].busy), float64(tres.search.Tuples)))
	ms.set("bitindex.match_ratio", ratio(float64(tres.matches), float64(tres.search.Tuples)))
	ms.set("bitindex.mem_b_per_tuple", ratio(float64(tres.memBytes), float64(tres.stateLen)))
	ms.set("bitindex.search_share", ratio(float64(self[slotSearch]), runNS))
	ms.set("bitindex.ingest_share", ratio(float64(self[slotInsert]+self[slotDelete]), runNS))

	ms.set("core.observe_ns_per_flush", tr.nsPer(slotCoreObserve))
	ms.set("core.tune_ms_per_pass", tr.nsPer(slotCoreTune)/1e6)
	ms.set("core.tune_passes", float64(tr.total[slotCoreTune].count))
	ms.set("core.retunes", float64(tres.retunes))

	ms.set("router.next_ns_per_decision", tr.nsPer(slotRouterNext))
	ms.set("router.observe_ns_per_call", tr.nsPer(slotRouterObserve))
	ms.set("router.explored_share", ratio(float64(tres.explored), float64(tres.decisions)))

	ms.set("trace.overhead_share", ratio(float64(tres.wall-ref.wall), float64(tres.wall)))
	// The driver's own glue: self time of the structural spans, which no
	// layer call covers.
	glue := self[slotRun] + self[slotTick] + self[slotIngest] + self[slotProbe] + self[slotBarrier]
	ms.set("trace.unattributed_share", ratio(float64(glue), runNS))
}

// isolatedMetrics replays inputs recorded during the traced run through
// single layers: state 0's access patterns through the assessor, the
// assessor's reports through the tuner and the cost model, and state 0's
// final contents through the tuple codec and a whole-index migration.
func isolatedMetrics(ms *metricSet, tres *replayResult, numAttrs int, seed uint64) {
	// assess: the same observe / report / reset cycle core runs, one report
	// per AutoTuneEvery observations.
	asr, err := assess.NewCDIA(numAttrs, 0.005, hh.RollupHighestCount, seed)
	if err != nil {
		panic(err) // constant arguments: only a bug can get here
	}
	var (
		observeNS, reportNS time.Duration
		observed, entries   uint64
		since               uint64
		reports             [][]cost.APStat
	)
	for _, pc := range tres.patterns {
		start := time.Now()
		for i := uint64(0); i < pc.n; i++ {
			asr.Observe(pc.pat)
		}
		observeNS += time.Since(start)
		observed += pc.n
		if since += pc.n; since >= cfgAutoTuneEvery {
			start = time.Now()
			st := asr.Results(0.04)
			reportNS += time.Since(start)
			entries += uint64(asr.Len())
			reports = append(reports, st)
			asr.Reset()
			since = 0
		}
	}
	ms.set("assess.observe_ns_per_op", ratio(float64(observeNS), float64(observed)))
	ms.set("assess.results_us_per_call", ratio(float64(reportNS)/1e3, float64(len(reports))))
	ms.set("assess.entries", ratio(float64(entries), float64(len(reports))))

	// tuner and cost: the controller configured as core.New configures it,
	// proposing over the recorded reports.
	stateLen := max(1, len(tres.state0))
	params := cost.Params{LambdaD: 1, LambdaR: ratio(float64(tres.probes), float64(tres.tuples)), Ch: 1, Cc: 0.25, Window: float64(stateLen)}
	ctl := &tuner.Controller{
		Params:        params,
		Budget:        cfgBitBudget,
		MinGain:       0.02,
		UseExhaustive: numAttrs <= 4,
		Horizon:       4 * cfgAutoTuneEvery / max(params.LambdaR, 1),
		Cooldown:      2,
		DriftSense:    4,
		DrainRate:     64,
	}
	cur := bitindex.Uniform(numAttrs, cfgBitBudget)
	var proposeNS time.Duration
	for _, st := range reports {
		start := time.Now()
		pr, err := ctl.Propose(cur, st, stateLen)
		proposeNS += time.Since(start)
		if err == nil && pr.Migrate() {
			cur = pr.To
			ctl.RecordDrain(uint64(stateLen), uint64(stateLen*numAttrs), true)
		}
	}
	ms.set("tuner.propose_us_per_pass", ratio(float64(proposeNS)/1e3, float64(len(reports))))
	const cdRounds = 200
	start := time.Now()
	for r := 0; r < cdRounds; r++ {
		for _, st := range reports {
			sink += cost.CD(params, cur, st)
		}
	}
	ms.set("cost.cd_ns_per_eval", ratio(float64(time.Since(start)), float64(cdRounds*len(reports))))

	// tuple codec, over enough rounds to time at least ~100k operations.
	tuples := tres.state0
	if len(tuples) == 0 {
		ms.set("tuple.encode_ns_per_tuple", 0)
		ms.set("tuple.decode_ns_per_tuple", 0)
		ms.set("bitindex.migrate_ns_per_tuple", 0)
		return
	}
	rounds := 100000/len(tuples) + 1
	var buf []byte
	start = time.Now()
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for _, t := range tuples {
			buf = tuple.AppendTuple(buf, t)
		}
	}
	ms.set("tuple.encode_ns_per_tuple", ratio(float64(time.Since(start)), float64(rounds*len(tuples))))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		rest := buf
		for len(rest) > 0 {
			t, next, err := tuple.DecodeTuple(rest)
			if err != nil {
				panic(err) // buf was produced by AppendTuple just above
			}
			sink += float64(t.Seq)
			rest = next
		}
	}
	ms.set("tuple.decode_ns_per_tuple", ratio(float64(time.Since(start)), float64(rounds*len(tuples))))

	// bitindex: one whole-index migration, uniform → skewed.
	attrMap := make([]int, numAttrs)
	for i := range attrMap {
		attrMap[i] = i
	}
	skew := make([]uint8, numAttrs)
	skew[0] = cfgBitBudget
	if numAttrs == 1 {
		skew[0] = cfgBitBudget / 2
	}
	ix, err := bitindex.NewSharded(bitindex.Uniform(numAttrs, cfgBitBudget), attrMap, nil, cfgShards)
	if err != nil {
		panic(err) // constant arguments
	}
	for _, t := range tuples {
		ix.Insert(t)
	}
	start = time.Now()
	if _, err := ix.Migrate(bitindex.NewConfig(skew...)); err != nil {
		panic(err) // the target uses the same attribute count and budget
	}
	ms.set("bitindex.migrate_ns_per_tuple", ratio(float64(time.Since(start)), float64(len(tuples))))
}

// pipelineMetrics derives the P metrics from the real pipeline's runs. The
// dispatch internals (deque, mailbox, barrier, supervisor) are unexported,
// so they appear only as the residual against the single-threaded replay.
func pipelineMetrics(ms *metricSet, w workload, runs [2]*pipelineRun, std *pipelineRun, ref *replayResult) error {
	var tps [2]float64
	for i, pr := range runs {
		ts, err := pr.tickStats(w)
		if err != nil {
			return err
		}
		tps[i] = ts.tuplesPerSec
	}
	ts, err := std.tickStats(w)
	if err != nil {
		return err
	}
	res := std.res
	ms.set("pipeline.tuples_per_sec_1w", tps[0])
	ms.set("pipeline.scaling_2w", ratio(tps[1], tps[0]))
	ms.set("pipeline.overhead_ns_per_probe", ratio(float64(runs[0].res.Wall-ref.wall), float64(runs[0].res.Probes)))
	ms.set("pipeline.tick_p99_us", float64(ts.p99)/1e3)
	ms.set("pipeline.tick_max_us", float64(ts.max)/1e3)
	ms.set("pipeline.alloc_b_per_tuple", ratio(float64(std.allocBytes), float64(res.TuplesIngested)))
	ms.set("pipeline.gc_cycles", float64(std.gcCycles))
	ms.set("pipeline.gc_pause_ms", float64(std.gcPause)/1e6)
	ms.set("pipeline.probes", float64(res.Probes))
	ms.set("pipeline.results", float64(res.Results))
	ms.set("pipeline.retunes", float64(res.Retunes))

	ms.set("router.probes_per_tuple", ratio(float64(res.Probes), float64(res.TuplesIngested)))
	ms.set("router.results_per_probe", ratio(float64(res.Results), float64(res.Probes)))

	ms.set("tuner.passes", float64(res.Tuner.Passes))
	ms.set("tuner.migrations", float64(res.Tuner.Migrations))
	ms.set("tuner.holds", float64(res.Tuner.Holds()))
	ms.set("tuner.mig_cost_residual", ratio(res.Tuner.RealizedMigCost, res.Tuner.PredictedMigCost))
	return nil
}

// storageMetrics reads the timing decorator. A run without a durable store
// never calls the storage layer, so every storage metric is 0.
func storageMetrics(ms *metricSet, pr *pipelineRun) {
	s := pr.store
	if s == nil {
		for _, d := range layerMetrics {
			if strings.HasPrefix(d.name, "storage.") {
				ms.set(d.name, 0)
			}
		}
		return
	}
	nsync, p50, p95 := s.syncQuantiles()
	ms.set("storage.append_ns_per_rec", ratio(float64(s.appendNS.Load()), float64(s.appends.Load())))
	ms.set("storage.wal_b_per_tuple", ratio(float64(s.appendBytes.Load()), float64(pr.res.TuplesIngested)))
	ms.set("storage.sync_us_p50", float64(p50)/1e3)
	ms.set("storage.sync_us_p95", float64(p95)/1e3)
	ms.set("storage.syncs", float64(nsync))
	ms.set("storage.checkpoint_us_per_save", ratio(float64(s.saveNS.Load())/1e3, float64(s.saves.Load())))
	ms.set("storage.checkpoint_b_per_save", ratio(float64(s.saveBytes.Load()), float64(s.saves.Load())))
	ms.set("storage.checkpoints", float64(s.saves.Load()))
	ms.set("storage.busy_share", ratio(float64(s.busy()), float64(pr.wall)))
}

// crashRecover kills a durable run at mid-horizon and resumes it with
// pipeline.Recover from a reopened store: the two segments together must
// reproduce the reference digest with no state lost.
func crashRecover(w workload, seed uint64, ticks int64, rep *report) error {
	dir, err := os.MkdirTemp(outDir, "crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	crash := ticks / 2
	cfg := w.pipelineConfig(seed, ticks, probeWorkers(), cfgShards)
	cfg.Fault.CrashTicks = []int64{crash}
	var dg digest
	cfg.OnResult = dg.add

	segment := func(run func(pipeline.Config) (*pipeline.Result, error)) (*pipeline.Result, time.Duration, error) {
		fs, err := openStore(dir)
		if err != nil {
			return nil, 0, err
		}
		cfg.Durable = fs
		start := time.Now()
		res, err := run(cfg)
		d := time.Since(start)
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		return res, d, err
	}
	first, _, err := segment(pipeline.Run)
	if err != nil {
		return err
	}
	if !first.Crashed || first.CrashTick != crash {
		return fmt.Errorf("durable run did not stop at the scheduled crash tick %d", crash)
	}
	second, outer, err := segment(pipeline.Recover)
	if err != nil {
		return err
	}
	rep.Attempted += second.TuplesIngested
	if got := dg.String(); got != rep.Reference || second.StateLost != 0 || second.Crashed {
		rep.fail(second.TuplesIngested, "crash at tick %d + Recover: digest %s (reference %s), StateLost %d", crash, got, rep.Reference, second.StateLost)
	}
	rep.metrics.set("storage.recover_ms", float64(outer-second.Wall)/1e6)
	rep.metrics.set("storage.replayed_tuples", float64(second.Recovered))
	rep.info("crash at tick %d of %d, Recover resumed at tick %d and re-inserted %d tuples", crash, ticks, second.ResumedTick, second.Recovered)
	return nil
}

// checkIntent holds each workload to the layer it exists to stress, so a
// later edit cannot quietly turn two workloads into the same one.
func checkIntent(w workload, ms *metricSet, rep *report, results uint64) {
	v := func(name string) float64 { return ms.values[name].Value }
	if results == 0 {
		// The traced horizon is a third of the end-to-end one, where
		// minResults is enforced; here the digest only has to be non-empty.
		rep.guard("no results; a zero-result digest is vacuous")
	}
	switch w.name {
	case "scan":
		if s := v("bitindex.search_share"); s < 0.5 {
			rep.guard("scan: bitindex.search_share %.3f < 0.5, the candidate scan no longer dominates", s)
		}
	case "ingest":
		if p := v("router.probes_per_tuple"); p != 1 {
			rep.guard("ingest: router.probes_per_tuple %.4f != 1", p)
		}
		if b := v("bitindex.buckets_per_probe"); b > 1 {
			rep.guard("ingest: bitindex.buckets_per_probe %.4f > 1, probes are no longer point probes", b)
		}
		// The issue put this at 0.35; five seeds read 0.318-0.330 here, and a
		// guard 6 % from the measurement would trip on this host's noise.
		if s := v("bitindex.search_share"); s > 0.40 {
			rep.guard("ingest: bitindex.search_share %.3f > 0.40, the workload is no longer write-heavy", s)
		}
	case "drift", "durable":
		if r := v("core.retunes"); r < 50 {
			rep.guard("%s: core.retunes %.0f < 50 in the traced run, the tuning path is idle", w.name, r)
		}
	}
}

// checkCrossIntent compares workloads with each other, so it needs the
// reports of both and runs under -all: scan exists to isolate the probe path
// from the tuner, which it does only while it retunes several times more
// rarely per tuple than drift. It is enforced on the end-to-end horizon (7x
// apart); on the traced run's third of it the initial tuning from the uniform
// configuration weighs more (4-7x apart), so there the ratio is only printed.
func checkCrossIntent(reports []*report, enforce bool) (problems []string) {
	var d, s *report
	for _, r := range reports {
		switch r.Workload {
		case "drift":
			d = r
		case "scan":
			s = r
		}
	}
	if d == nil || s == nil || s.RetunesPerTuple == 0 {
		return nil
	}
	r := d.RetunesPerTuple / s.RetunesPerTuple
	fmt.Printf("# retunes per tuple: drift %.3g, scan %.3g, ratio %.1f\n", d.RetunesPerTuple, s.RetunesPerTuple, r)
	if enforce && r < 4 {
		problems = append(problems, fmt.Sprintf("scan retunes per tuple %.3g > 1/4 of drift's %.3g: scan no longer isolates the probe path from the tuner", s.RetunesPerTuple, d.RetunesPerTuple))
	}
	return problems
}
