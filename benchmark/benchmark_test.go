package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"amri/internal/pipeline"
)

// testTicks is the reduced horizon the tests run each workload on: past the
// 60-tick window fill, short enough for the whole file to run in seconds.
const testTicks = 90

func useTempOut(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// The replay driver is only a reference if it computes the pipeline's result
// set: same digest at one worker on the flat index and at two workers on
// eight shards, for every workload. The replay runs traced here, so the same
// run also shows that tracing leaves the result set alone and that the span
// tree it records is well-formed.
func TestReplayDigestEqualsPipelineDigest(t *testing.T) {
	for _, w := range workloads() {
		tr := newTracer()
		ref, err := replay(w, 3, testTicks, tr)
		if err != nil {
			t.Fatalf("%s: replay: %v", w.name, err)
		}
		checkSpanTree(t, w.name, tr)
		if ref.digest.count() == 0 {
			t.Errorf("%s: replay emitted no results in %d ticks", w.name, testTicks)
		}
		for _, c := range []struct{ workers, shards int }{{1, 0}, {2, 8}} {
			cfg := w.pipelineConfig(3, testTicks, c.workers, c.shards)
			var dg digest
			cfg.OnResult = dg.add
			if w.durable {
				fs, err := openStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				cfg.Durable = fs
			}
			if _, err := pipeline.Run(cfg); err != nil {
				t.Fatalf("%s: pipeline.Run: %v", w.name, err)
			}
			if got, want := dg.String(), ref.digest.String(); got != want {
				t.Errorf("%s at %d workers / %d shards: pipeline digest %s, replay digest %s", w.name, c.workers, c.shards, got, want)
			}
		}
	}
}

// checkSpanTree holds the trace to its format: children lie inside their
// parents, no self time is negative, and the self times of the whole tree
// sum to the run span within 1 %.
func checkSpanTree(t *testing.T, name string, tr *tracer) {
	t.Helper()
	byID := make(map[int]span, len(tr.spans))
	self := make(map[int]int64, len(tr.spans))
	for _, s := range tr.spans {
		byID[s.ID] = s
		self[s.ID] += s.Busy
		self[s.Parent] -= s.Busy
	}
	var total int64
	for _, s := range tr.spans {
		if s.End < s.Start || s.Busy < 0 || s.Busy > s.End-s.Start {
			t.Fatalf("%s: span %+v is not a valid interval", name, s)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("%s: span %d names a missing parent %d", name, s.ID, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %+v lies outside its parent %+v", name, s, p)
			}
		}
		if self[s.ID] < 0 {
			t.Fatalf("%s: span %+v has self time %d < 0", name, s, self[s.ID])
		}
		total += self[s.ID]
	}
	run := tr.spans[0]
	if diff := float64(total - run.Busy); diff > 0.01*float64(run.Busy) || diff < -0.01*float64(run.Busy) {
		t.Errorf("%s: self times sum to %d ns, the run span is %d ns", name, total, run.Busy)
	}
	if len(tr.spans) < 1+testTicks*8 {
		t.Errorf("%s: only %d spans for %d ticks", name, len(tr.spans), testTicks)
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func asManifest(defs []metricDef) []manifestMetric {
	var out []manifestMetric
	for _, d := range defs {
		out = append(out, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	return out
}

// BENCHMARK.json and the program declare the same workloads and metrics.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if got, want := m.EndToEnd, asManifest(e2eMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", got, want)
	}
	if got, want := m.PerLayer, asManifest(layerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", got, want)
	}
	if len(m.PerLayer) != 65 {
		t.Errorf("%d per-layer metrics, want 65", len(m.PerLayer))
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if steady := w.ticks - w.query().WindowTicks; steady < minSteadyTicks {
			t.Errorf("%s: %d steady ticks < %d", w.name, steady, minSteadyTicks)
		}
	}
	sawSetup := false
	for _, d := range e2eMetrics {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		sawSetup = sawSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

var metricLine = regexp.MustCompile(`^([A-Za-z0-9][A-Za-z0-9_.-]*) (\S+) (\S+)( +#.*)?$`)

// printedMetrics parses a report's output: the "name value unit" lines and
// the closing JSON line must carry the same names.
func printedMetrics(t *testing.T, rep *report) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Attempted < 1 {
		t.Errorf("attempted %d < 1", last.Attempted)
	}
	units := make(map[string]string)
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		m := metricLine.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("line %q is neither a comment nor name value unit", l)
			continue
		}
		units[m[1]] = m[3]
	}
	if len(units) != len(last.Metrics) {
		t.Errorf("%d metric lines, %d metrics in the result object", len(units), len(last.Metrics))
	}
	for name, unit := range units {
		if last.Metrics[name].Unit != unit {
			t.Errorf("%s: printed unit %q, result object unit %q", name, unit, last.Metrics[name].Unit)
		}
	}
	return units
}

func wantUnits(defs []manifestMetric) map[string]string {
	out := make(map[string]string)
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// The printed metric set is exactly the set BENCHMARK.json lists: end to end
// with tracing off, per layer with it on.
func TestPrintedMetricsMatchManifest(t *testing.T) {
	useTempOut(t)
	m := readManifest(t)
	w, err := lookupWorkload("durable")
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		w.ticks = testTicks
		if trace {
			w.ticks = 3 * testTicks // the traced run uses a third of it
		}
		rep, err := runWorkload(w, 5, 0, trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Errorf("trace=%v: %d of %d tuples failed: %v", trace, rep.Failed, rep.Attempted, rep.Problems)
		}
		want := wantUnits(m.EndToEnd)
		if trace {
			want = wantUnits(m.PerLayer)
		}
		if got := printedMetrics(t, rep); !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: printed metrics %v, BENCHMARK.json lists %v", trace, got, want)
		}
	}
	if _, err := os.Stat(outDir + "/trace-durable.json"); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

// committed is BENCHMARK.json, read before any test changes directory.
var committed *manifest

func TestMain(m *testing.M) {
	if data, err := os.ReadFile("../BENCHMARK.json"); err == nil {
		var mf manifest
		if json.Unmarshal(data, &mf) == nil {
			committed = &mf
		}
	}
	os.Exit(m.Run())
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	if committed == nil {
		t.Fatal("../BENCHMARK.json is missing or not JSON")
	}
	return *committed
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"tick_p50_us", "us", "lower", 0.10}
	higher := metricDef{"tuples_per_sec", "1/s", "higher", 0.10}
	mk := func(v, lo, hi float64) measured { return measured{Value: v, Min: lo, Max: hi, Q1: lo, Q3: hi, N: 3} }
	for _, c := range []struct {
		d    metricDef
		a, b measured
		want string
	}{
		{lower, mk(100, 98, 102), mk(101, 99, 103), "within-bound"},
		{lower, mk(100, 98, 102), mk(115, 113, 117), "regressed"},
		{lower, mk(100, 98, 102), mk(85, 83, 87), "improved"},
		{lower, mk(100, 98, 102), mk(93, 92, 94), "within-bound"},
		{lower, mk(100, 90, 112), mk(85, 80, 89), "improved"},
		{lower, mk(100, 90, 112), mk(93, 80, 89), "within-bound"},
		{lower, mk(100, 90, 112), mk(103, 95, 108), "unresolved"},
		{higher, mk(100, 98, 102), mk(85, 84, 86), "regressed"},
		{higher, mk(100, 98, 102), mk(115, 113, 117), "improved"},
		{higher, mk(100, 98, 102), mk(97, 96, 99), "within-bound"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: verdict %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
}

func TestLog2HistQuantile(t *testing.T) {
	var h log2Hist
	for i := 0; i < 990; i++ {
		h.add(100) // bucket [64, 128)
	}
	for i := 0; i < 10; i++ {
		h.add(5000) // bucket [4096, 8192)
	}
	if p50 := h.quantile(0.5); p50 < 64 || p50 >= 128 {
		t.Errorf("p50 %v outside the bucket holding 100", p50)
	}
	if p999 := h.quantile(0.999); p999 < 4096 || p999 > 8192 {
		t.Errorf("p99.9 %v outside the bucket holding 5000", p999)
	}
	if m := h.mean(); m < 148 || m > 150 {
		t.Errorf("mean %v, want 149", m)
	}
}
