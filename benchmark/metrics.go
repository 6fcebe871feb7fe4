package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric the benchmark prints. The end-to-end list
// and the per-layer list are the same sets BENCHMARK.json names; a test
// holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics attribute a change to a layer and carry no bound.
	bound float64
}

// e2eMetrics are what a user of the pipeline sees. failed_share is not
// among them: it is expected to be exactly 0, so it is reported as the
// run's failed / attempted counts instead of as a gated ratio.
var e2eMetrics = []metricDef{
	{"tuples_per_sec", "1/s", "higher", 0.25},
	{"tick_p50_us", "us", "lower", 0.25},
	{"tick_p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"state_mb", "MB", "lower", 0.15},
}

// layerMetrics are the per-layer metrics, grouped by the module they
// measure. README.md gives each one's source (T traced replay, P real
// pipeline, I isolated replay of recorded inputs) and the end-to-end metric
// and workload it is expected to move.
var layerMetrics = []metricDef{
	{"stream.tick_ns_per_tuple", "ns", "lower", 0},

	{"tuple.extend_ns_per_match", "ns", "lower", 0},
	{"tuple.encode_ns_per_tuple", "ns", "lower", 0},
	{"tuple.decode_ns_per_tuple", "ns", "lower", 0},

	{"window.add_ns_per_tuple", "ns", "lower", 0},
	{"window.expire_ns_per_tuple", "ns", "lower", 0},

	{"bitindex.insert_ns_per_op", "ns", "lower", 0},
	{"bitindex.drain_ns_per_insert", "ns", "lower", 0},
	{"bitindex.delete_ns_per_op", "ns", "lower", 0},
	{"bitindex.search_ns_per_probe", "ns", "lower", 0},
	{"bitindex.search_ns_p99", "ns", "lower", 0},
	{"bitindex.search_ns_per_probe.w0", "ns", "lower", 0},
	{"bitindex.search_ns_per_probe.w1", "ns", "lower", 0},
	{"bitindex.search_ns_per_probe.w2", "ns", "lower", 0},
	{"bitindex.buckets_per_probe", "count", "lower", 0},
	{"bitindex.hashes_per_probe", "count", "lower", 0},
	{"bitindex.candidates_per_probe", "count", "lower", 0},
	{"bitindex.search_ns_per_candidate", "ns", "lower", 0},
	{"bitindex.match_ratio", "ratio", "higher", 0},
	{"bitindex.migrate_ns_per_tuple", "ns", "lower", 0},
	{"bitindex.mem_b_per_tuple", "B", "lower", 0},
	{"bitindex.search_share", "ratio", "lower", 0},
	{"bitindex.ingest_share", "ratio", "lower", 0},

	{"core.observe_ns_per_flush", "ns", "lower", 0},
	{"core.tune_ms_per_pass", "ms", "lower", 0},
	{"core.tune_passes", "count", "lower", 0},
	{"core.retunes", "count", "lower", 0},

	{"assess.observe_ns_per_op", "ns", "lower", 0},
	{"assess.results_us_per_call", "us", "lower", 0},
	{"assess.entries", "count", "lower", 0},

	{"tuner.propose_us_per_pass", "us", "lower", 0},
	{"cost.cd_ns_per_eval", "ns", "lower", 0},
	{"tuner.passes", "count", "lower", 0},
	{"tuner.migrations", "count", "lower", 0},
	{"tuner.holds", "count", "higher", 0},
	{"tuner.mig_cost_residual", "ratio", "lower", 0},

	{"router.next_ns_per_decision", "ns", "lower", 0},
	{"router.observe_ns_per_call", "ns", "lower", 0},
	{"router.explored_share", "ratio", "lower", 0},
	{"router.probes_per_tuple", "count", "lower", 0},
	{"router.results_per_probe", "ratio", "higher", 0},

	{"storage.append_ns_per_rec", "ns", "lower", 0},
	{"storage.wal_b_per_tuple", "B", "lower", 0},
	{"storage.sync_us_p50", "us", "lower", 0},
	{"storage.sync_us_p95", "us", "lower", 0},
	{"storage.syncs", "count", "lower", 0},
	{"storage.checkpoint_us_per_save", "us", "lower", 0},
	{"storage.checkpoint_b_per_save", "B", "lower", 0},
	{"storage.checkpoints", "count", "lower", 0},
	{"storage.busy_share", "ratio", "lower", 0},
	{"storage.recover_ms", "ms", "lower", 0},
	{"storage.replayed_tuples", "count", "lower", 0},

	{"pipeline.tuples_per_sec_1w", "1/s", "higher", 0},
	{"pipeline.scaling_2w", "ratio", "higher", 0},
	{"pipeline.overhead_ns_per_probe", "ns", "lower", 0},
	{"pipeline.tick_p99_us", "us", "lower", 0},
	{"pipeline.tick_max_us", "us", "lower", 0},
	{"pipeline.alloc_b_per_tuple", "B", "lower", 0},
	{"pipeline.gc_cycles", "count", "lower", 0},
	{"pipeline.gc_pause_ms", "ms", "lower", 0},
	{"pipeline.probes", "count", "lower", 0},
	{"pipeline.results", "count", "higher", 0},
	{"pipeline.retunes", "count", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// measured is one metric's value in a report: the median of N samples.
// Min and Max span them. Q1 and Q3 are their quartiles once there are enough
// samples to have any (four); below that they repeat Min and Max.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metricSet collects a report's metrics and checks them against a
// declared list, so a metric can be neither forgotten nor invented.
type metricSet struct {
	defs   []metricDef
	values map[string]measured
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]measured, len(defs))}
}

func (ms *metricSet) unitOf(name string) string {
	for _, d := range ms.defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// set records a metric measured once.
func (ms *metricSet) set(name string, v float64) {
	ms.setSamples(name, []float64{v})
}

// setSamples records a metric as the median of its samples.
func (ms *metricSet) setSamples(name string, samples []float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	m := measured{Value: median(s), Unit: ms.unitOf(name), Min: s[0], Max: s[n-1], Q1: s[0], Q3: s[n-1], N: n}
	if n >= 4 {
		m.Q1, m.Q3 = median(s[:n/2]), median(s[(n+1)/2:])
	}
	ms.values[name] = m
}

// complete reports the declared metrics that were never set.
func (ms *metricSet) complete() error {
	for _, d := range ms.defs {
		if _, ok := ms.values[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

// print writes one "name value unit" line per metric, in declared order.
func (ms *metricSet) print(w io.Writer) {
	for _, d := range ms.defs {
		m := ms.values[d.name]
		if m.N > 1 {
			fmt.Fprintf(w, "%s %.6g %s  # median of %d, min %.6g max %.6g\n", d.name, m.Value, m.Unit, m.N, m.Min, m.Max)
		} else {
			fmt.Fprintf(w, "%s %.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// median of a sorted, non-empty slice (mean of the middle pair when even).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
