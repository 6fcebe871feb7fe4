package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"amri/internal/pipeline"
	"amri/internal/storage"
)

// pipelineRun is one run of the real concurrent pipeline, observed only
// through the hooks pipeline.Config exposes and the fields of its Result.
type pipelineRun struct {
	res    *pipeline.Result
	digest string
	wall   time.Duration // around pipeline.Run, store open included
	// stamps[k] is the time from just before the store open / Run call to
	// OnTickEnd(k): generation, both quiesced phases, the barrier merge,
	// tuning and the durable sync of tick k are all behind it.
	stamps []time.Duration
	// heapGrowth is HeapAlloc after a forced GC inside the final OnTickEnd
	// (its stamp is taken first) minus the reading before the run: the
	// retained bytes of the full window states, indices and assessors.
	heapGrowth int64
	// Allocation and GC activity over the run.
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	store      *spanStore // non-nil when the store was wrapped for timing
}

type runOptions struct {
	ticks   int64
	workers int
	// timeStore wraps the durable store in the timing decorator.
	timeStore bool
}

// runPipeline executes the workload on the measured system configuration.
func runPipeline(w workload, seed uint64, o runOptions) (*pipelineRun, error) {
	cfg := w.pipelineConfig(seed, o.ticks, o.workers, cfgShards)
	pr := &pipelineRun{stamps: make([]time.Duration, o.ticks)}
	var dg digest
	cfg.OnResult = dg.add

	// A durable workload keeps its store in a temporary directory under out/.
	var dir string
	if w.durable {
		var err error
		if dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	var before, after, atEnd runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	cfg.OnTickEnd = func(tick int64) {
		pr.stamps[tick] = time.Since(start)
		if tick == o.ticks-1 {
			runtime.GC()
			runtime.ReadMemStats(&atEnd)
		}
	}
	var fs *storage.FileStore
	if w.durable {
		var err error
		if fs, err = openStore(dir); err != nil {
			return nil, err
		}
		cfg.Durable = fs
		if o.timeStore {
			pr.store = newSpanStore(fs)
			cfg.Durable = pr.store
		}
	}
	res, err := pipeline.Run(cfg)
	pr.wall = time.Since(start)
	if fs != nil {
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	pr.res = res
	pr.digest = dg.String()
	pr.heapGrowth = int64(atEnd.HeapAlloc) - int64(before.HeapAlloc)
	pr.allocBytes = after.TotalAlloc - before.TotalAlloc
	pr.gcCycles = after.NumGC - before.NumGC
	pr.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return pr, nil
}

// failedTuples counts the tuples of the run that were shed or lost.
func (pr *pipelineRun) failedTuples() uint64 {
	r := pr.res
	return r.IngestShed + r.ProbeShed + r.IngestLost + r.ProbeLost + r.StateLost
}

// tickStats summarizes the steady window of a run: ticks at or past
// WindowTicks, where every state is full.
type tickStats struct {
	steadyTicks  int
	tuplesPerSec float64
	p50, p95     time.Duration
	p99, max     time.Duration
}

func (pr *pipelineRun) tickStats(w workload) (tickStats, error) {
	win := int(w.query().WindowTicks)
	n := len(pr.stamps)
	if n <= win {
		return tickStats{}, fmt.Errorf("horizon of %d ticks has no steady window past the %d-tick fill", n, win)
	}
	ts := tickStats{steadyTicks: n - win}
	steady := pr.stamps[n-1] - pr.stamps[win-1]
	ts.tuplesPerSec = float64(ts.steadyTicks*w.tuplesPerTick()) / steady.Seconds()
	gaps := make([]time.Duration, 0, ts.steadyTicks)
	for k := win; k < n; k++ {
		gaps = append(gaps, pr.stamps[k]-pr.stamps[k-1])
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a] < gaps[b] })
	at := func(q float64) time.Duration { return gaps[int(q*float64(len(gaps)-1))] }
	ts.p50, ts.p95, ts.p99, ts.max = at(0.50), at(0.95), at(0.99), gaps[len(gaps)-1]
	return ts, nil
}

// measureSetup times construction plus window fill alone: a run that stops
// when the window is full, so the set-up time is sampled several times in
// one process without paying for a full horizon each time.
func measureSetup(w workload, seed uint64) (time.Duration, error) {
	win := w.query().WindowTicks
	pr, err := runPipeline(w, seed, runOptions{ticks: win, workers: probeWorkers()})
	if err != nil {
		return 0, err
	}
	return pr.stamps[win-1], nil
}
