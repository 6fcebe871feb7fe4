// Package metrics collects and renders what the paper's figures plot:
// cumulative output tuples (throughput) against virtual time, alongside
// memory usage and the run's end condition.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one sample of a run.
type Point struct {
	// Tick is the virtual time in ticks (seconds).
	Tick int64
	// Results is the cumulative number of join results produced.
	Results uint64
	// MemBytes is the simulated resident set at the sample.
	MemBytes int
	// Backlog is the number of queued work items at the sample.
	Backlog int
}

// EndReason states why a run stopped. A virtual-clock run either reaches
// its horizon or dies at the memory cap; crashes and load shedding belong to
// the concurrent pipeline, which reports them in its own Result.
type EndReason string

const (
	// EndCompleted means the run reached its configured horizon.
	EndCompleted EndReason = "completed"
	// EndOOM means the simulated resident set exceeded the memory cap —
	// the paper's "ran out of memory" terminations.
	EndOOM EndReason = "out-of-memory"
)

// RunResult is the full record of one system's run.
type RunResult struct {
	// Name labels the contender ("AMRI/CDIA-highest", "hash-3", ...).
	Name string
	// Points is the sampled series in tick order.
	Points []Point
	// End is why and when the run stopped.
	End     EndReason
	EndTick int64
	// TotalResults is the cumulative throughput at the end.
	TotalResults uint64
	// PeakMemBytes is the largest sampled resident set.
	PeakMemBytes int
	// Retunes counts index migrations performed.
	Retunes int
	// Probes counts search requests executed.
	Probes uint64
	// CostUnits is total simulated CPU work.
	CostUnits float64
	// FinalConfigs records each state's index configuration at the end of
	// the run (bit-index contenders) or its access-module patterns (hash
	// contenders) — what the tuner converged to.
	FinalConfigs []string
	// Latency distributes the result latency: ticks between a result's
	// driving tuple arriving and the result being emitted. Backlogged
	// systems deliver late (and, past the window, not at all).
	Latency LatencySummary
	// CostBreakdown gives each cost category's share of CostUnits
	// (maintain / search / assess / route) — where the CPU actually went.
	CostBreakdown map[string]float64
	// Tuner aggregates the retuning controllers' what-if accounting across
	// the run's states.
	Tuner TunerSummary
}

// TunerSummary mirrors the tuner controllers' decision counters without
// importing them (metrics stays dependency-free). Passes counts tuning
// passes; Migrations, CooldownHolds, FlipFlopHolds and Uneconomical
// partition the passes where a worthwhile candidate existed; the cost pair
// compares predicted against realized migration cost in cost-model units.
type TunerSummary struct {
	Passes           int
	Migrations       int
	CooldownHolds    int
	FlipFlopHolds    int
	Uneconomical     int
	PredictedMigCost float64
	RealizedMigCost  float64
	Completed        int
	Aborted          int
}

// Holds returns the passes where thrash protection held the configuration.
func (t TunerSummary) Holds() int { return t.CooldownHolds + t.FlipFlopHolds + t.Uneconomical }

// String renders the summary for run reports.
func (t TunerSummary) String() string {
	return fmt.Sprintf("tuner passes=%d migrations=%d holds=%d (cooldown=%d flipflop=%d uneconomical=%d) predCost=%.0f realCost=%.0f",
		t.Passes, t.Migrations, t.Holds(), t.CooldownHolds, t.FlipFlopHolds, t.Uneconomical,
		t.PredictedMigCost, t.RealizedMigCost)
}

// LatencySummary is a compact latency distribution.
type LatencySummary struct {
	Count    uint64
	MeanTick float64
	P50Tick  int64
	P99Tick  int64
	MaxTick  int64
}

// String renders the summary.
func (l LatencySummary) String() string {
	if l.Count == 0 {
		return "latency: n/a"
	}
	return fmt.Sprintf("latency mean=%.1f p50=%d p99=%d max=%d ticks",
		l.MeanTick, l.P50Tick, l.P99Tick, l.MaxTick)
}

// SummarizeLatencies builds a LatencySummary from raw per-result latencies
// (in ticks); the input slice is sorted in place.
func SummarizeLatencies(lat []int64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, v := range lat {
		sum += v
	}
	idx := func(q float64) int64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return LatencySummary{
		Count:    uint64(len(lat)),
		MeanTick: float64(sum) / float64(len(lat)),
		P50Tick:  idx(0.50),
		P99Tick:  idx(0.99),
		MaxTick:  lat[len(lat)-1],
	}
}

// At returns the cumulative results at or before the tick (0 before the
// first sample).
func (r *RunResult) At(tick int64) uint64 {
	var res uint64
	for _, p := range r.Points {
		if p.Tick > tick {
			break
		}
		res = p.Results
	}
	return res
}

// Summary renders a one-line digest.
func (r *RunResult) Summary() string {
	return fmt.Sprintf("%-24s results=%-10d end=%s@%ds peakMem=%s retunes=%d",
		r.Name, r.TotalResults, r.End, r.EndTick, FormatBytes(r.PeakMemBytes), r.Retunes)
}

// FormatBytes renders a byte count human-readably.
func FormatBytes(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Table renders a fixed-width comparison table of several runs, one row per
// contender, like the paper's result summaries.
func Table(runs []*RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %14s %10s %12s %8s %8s %9s\n",
		"system", "results", "end", "endTick", "peakMem", "retunes", "p99lat", "maint%")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 106))
	for _, r := range runs {
		maint := "-"
		if f, ok := r.CostBreakdown["maintain"]; ok {
			maint = fmt.Sprintf("%.0f%%", 100*f)
		}
		p99 := "-"
		if r.Latency.Count > 0 {
			p99 = fmt.Sprintf("%d", r.Latency.P99Tick)
		}
		fmt.Fprintf(&b, "%-26s %12d %14s %10d %12s %8d %8s %9s\n",
			r.Name, r.TotalResults, r.End, r.EndTick, FormatBytes(r.PeakMemBytes), r.Retunes, p99, maint)
	}
	return b.String()
}

// Chart renders an ASCII chart of cumulative results over time for several
// runs — the shape of the paper's Figures 6 and 7. Each contender gets a
// letter; at each time column the letter prints at its cumulative-results
// height.
func Chart(runs []*RunResult, width, height int) string {
	if len(runs) == 0 || width < 10 || height < 4 {
		return ""
	}
	var maxTick int64
	var maxRes uint64
	for _, r := range runs {
		for _, p := range r.Points {
			if p.Tick > maxTick {
				maxTick = p.Tick
			}
			if p.Results > maxRes {
				maxRes = p.Results
			}
		}
	}
	if maxTick == 0 || maxRes == 0 {
		return "(no data)\n"
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ri, r := range runs {
		mark := byte('A' + ri%26)
		for col := 0; col < width; col++ {
			tick := int64(float64(col) / float64(width-1) * float64(maxTick))
			if tick > r.EndTick {
				continue
			}
			res := r.At(tick)
			row := height - 1 - int(float64(res)/float64(maxRes)*float64(height-1))
			if row < 0 {
				row = 0
			}
			grid[row][col] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "cumulative results (max %d) over %d ticks\n", maxRes, maxTick)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n ")
	for ri, r := range runs {
		fmt.Fprintf(&b, "%c=%s ", 'A'+ri%26, r.Name)
	}
	b.WriteString("\n")
	return b.String()
}

// SortByResults orders runs by descending total results (stable for ties).
func SortByResults(runs []*RunResult) {
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].TotalResults > runs[j].TotalResults })
}

// WriteCSV emits the sampled series of several runs as CSV with columns
// system,tick,results,memBytes,backlog — ready for external plotting of the
// paper's figures.
func WriteCSV(w io.Writer, runs []*RunResult) error {
	if _, err := fmt.Fprintln(w, "system,tick,results,memBytes,backlog"); err != nil {
		return err
	}
	for _, r := range runs {
		for _, p := range r.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d\n",
				r.Name, p.Tick, p.Results, p.MemBytes, p.Backlog); err != nil {
				return err
			}
		}
	}
	return nil
}
