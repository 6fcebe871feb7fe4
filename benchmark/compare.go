package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(data, &reps); err != nil {
		// A single workload's file holds one report, not a list.
		var one report
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = []*report{&one}
	}
	return reps, nil
}

// verdict judges side b (the change) against side a (the parent) for one
// metric. worse is how much b's median is worse than a's, as a share of a's.
//
//	regressed     b's median is worse than a's by more than the bound
//	improved      b's median is better than a's by more than the bound and
//	              every sample of b reads better than every sample of a
//	unresolved    either side's own spread (quartile distance; min-max below
//	              four samples) is wider than the bound, so a difference of
//	              that size could not be told from noise — unless every
//	              sample of b reads better than every sample of a
//	within-bound  otherwise
//
// One run per side is a weak comparison on a noisy host: two runs of one
// commit can differ by most of the bound. A claim needs the ten alternating
// pairs of the choosing-metrics guide; this is the quick look.
func verdict(d metricDef, a, b measured) (v string, worse float64) {
	sign := 1.0 // lower is better: larger is worse
	bWorst, aBest := b.Max, a.Min
	if d.better == "higher" {
		sign = -1
		bWorst, aBest = b.Min, a.Max
	}
	worse = sign * (b.Value - a.Value) / a.Value
	allBetter := sign*(bWorst-aBest) < 0
	spread := max((a.Q3-a.Q1)/a.Value, (b.Q3-b.Q1)/b.Value)
	switch {
	case worse > d.bound:
		return "regressed", worse
	case allBetter && -worse > d.bound:
		return "improved", worse
	case spread > d.bound && !allBetter:
		return "unresolved", worse
	}
	return "within-bound", worse
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// each side's min–max, the bound and the verdict. ok is false when any
// pairing is regressed or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	as, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	bs, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	byName := make(map[string]*report)
	for _, r := range bs {
		byName[r.Workload] = r
	}
	ok = true
	fmt.Fprintf(w, "%-8s %-15s %13s %27s %13s %27s %7s %8s  %s\n",
		"workload", "metric", "a median", "a min..max", "b median", "b min..max", "bound", "b worse", "verdict")
	for _, ra := range as {
		rb := byName[ra.Workload]
		if rb == nil || ra.Trace || rb.Trace {
			continue
		}
		for _, d := range e2eMetrics {
			a, b := ra.Metrics[d.name], rb.Metrics[d.name]
			v, worse := verdict(d, a, b)
			if v == "regressed" || v == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "%-8s %-15s %13.6g %13.6g..%-12.6g %13.6g %13.6g..%-12.6g %6.0f%% %+7.1f%%  %s\n",
				ra.Workload, d.name, a.Value, a.Min, a.Max, b.Value, b.Min, b.Max, 100*d.bound, 100*worse, v)
		}
	}
	return ok, nil
}
