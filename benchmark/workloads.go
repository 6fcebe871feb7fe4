package main

import (
	"fmt"
	"runtime"

	"amri/internal/core"
	"amri/internal/pipeline"
	"amri/internal/query"
	"amri/internal/storage"
	"amri/internal/stream"
)

// workload is one set of inputs the benchmark runs. The program under test
// receives only (query, profile, seed, ticks); everything else below is the
// fixed system configuration shared by all workloads.
type workload struct {
	name string
	// why names the layer that does the work on this workload (it is also
	// the `why` recorded in BENCHMARK.json).
	why     string
	query   func() *query.Query
	profile stream.Profile
	// ticks is the end-to-end horizon; the traced run uses a third of it.
	ticks int64
	// durable runs the pipeline with a FileStore as Config.Durable.
	durable bool
}

// The fixed system configuration (what internal/bench already measures
// with, so numbers stay comparable).
const (
	cfgAutoTuneEvery = 2000
	cfgExplore       = 0.1
	cfgBitBudget     = 12
	cfgMailboxCap    = 64
	cfgShards        = 8
)

// openStore opens the durable workload's FileStore with its fixed flush
// policy: group commit. The WAL is fsynced at every tick boundary and before
// every checkpoint save (the pipeline's own Sync calls) and never by append
// count. FileStore's default adds an fsync every 64 appends; on this
// sandbox's virtual disk fsync latency wanders between 190 and 280 us within
// seconds, and with ~6 fsyncs per tick the default made identical runs read
// 24-35 k tuples/s — a spread wider than any bound a regression gate could
// use. At most one tick's appends are exposed to a power loss either way.
func openStore(dir string) (*storage.FileStore, error) {
	return storage.OpenFileStore(dir, storage.WithSyncEvery(1<<30))
}

// probeWorkers is the measured pipeline's worker count: min(2, nproc).
func probeWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func profileWith(lambdaD int, epochTicks int64, domains ...uint64) stream.Profile {
	p := stream.DriftProfile()
	p.LambdaD = lambdaD
	p.EpochTicks = epochTicks
	p.Domains = domains
	return p
}

func fourWay() *query.Query { return query.FourWay(60) }

// workloads lists the benchmark's four workloads in a fixed order.
// SkewedProfile and the Star/Chain(4) topologies are excluded on purpose;
// README.md records why.
func workloads() []workload {
	drift := stream.DriftProfile()
	return []workload{
		{
			name:    "drift",
			why:     "paper Fig. 6/7 drifting 4-way join: ~29 probes per tuple on small states, so per-probe fixed costs and the assess/tune/migrate path weigh as much as the scan",
			query:   fourWay,
			profile: drift,
			ticks:   1500,
		},
		{
			name:    "scan",
			why:     "4-way join over 12k-tuple states with drift off: the candidate scan is the memory wall and retunes are rare, so a bucket-layout change must move it and a tuner change must not",
			query:   fourWay,
			profile: profileWith(200, 0, 150, 220, 330, 500, 750, 1100),
			ticks:   400,
		},
		{
			name:    "ingest",
			why:     "2-way chain, one fully constrained probe per insert: time goes to insert, window expiry, delete, snapshots, generation and GC, so a read-side gain that costs inserts shows here",
			query:   func() *query.Query { return query.Chain(2, 60) },
			profile: profileWith(500, drift.EpochTicks, 60000, 75000, 90000, 110000, 135000, 160000),
			ticks:   3000,
		},
		{
			name:    "durable",
			why:     "drift inputs with a FileStore as Config.Durable (WAL fsync at every tick and checkpoint): durable minus drift isolates WAL append, fsync and checkpoint encode+rename",
			query:   fourWay,
			profile: drift,
			ticks:   1500,
			durable: true,
		},
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tuplesPerTick is the stated input size of one tick.
func (w workload) tuplesPerTick() int {
	return w.profile.LambdaD * w.query().NumStreams()
}

// pipelineConfig is the measured system: the fixed configuration plus the
// workload's inputs. Hooks and the durable store are the caller's.
func (w workload) pipelineConfig(seed uint64, ticks int64, workers, shards int) pipeline.Config {
	return pipeline.Config{
		Query:         w.query(),
		Profile:       w.profile,
		Seed:          seed,
		Ticks:         ticks,
		Method:        core.MethodCDIAHighest,
		BitBudget:     cfgBitBudget,
		AutoTuneEvery: cfgAutoTuneEvery,
		Explore:       cfgExplore,
		ProbeWorkers:  workers,
		Shards:        shards,
		MailboxCap:    cfgMailboxCap,
		ShedPolicy:    pipeline.PolicyBlock,
	}
}
