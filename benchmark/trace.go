package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"time"
)

// slot is one node kind of the span tree the replay driver records:
//
//	run → tick → { stream.tick,
//	               ingest  → { bitindex.insert, window.add, window.expire → bitindex.delete },
//	               probe   → { router.next, bitindex.search, tuple.extend },
//	               barrier → { router.observe, core.observe, core.tune } }
//
// run, tick, ingest, probe and barrier are the driver's own structure (their
// self time is glue no layer owns); every other slot is a call into one
// layer's exported API.
type slot int

const (
	slotRun slot = iota
	slotTick
	slotStreamTick
	slotIngest
	slotInsert
	slotWindowAdd
	slotWindowExpire
	slotDelete
	slotProbe
	slotRouterNext
	slotSearch
	slotExtend
	slotBarrier
	slotRouterObserve
	slotCoreObserve
	slotCoreTune
	numSlots
)

var slotNames = [numSlots]string{
	"run", "tick", "stream.tick",
	"ingest", "bitindex.insert", "window.add", "window.expire", "bitindex.delete",
	"probe", "router.next", "bitindex.search", "tuple.extend",
	"barrier", "router.observe", "core.observe", "core.tune",
}

var slotParents = [numSlots]slot{
	slotRun:           -1,
	slotTick:          slotRun,
	slotStreamTick:    slotTick,
	slotIngest:        slotTick,
	slotInsert:        slotIngest,
	slotWindowAdd:     slotIngest,
	slotWindowExpire:  slotIngest,
	slotDelete:        slotWindowExpire,
	slotProbe:         slotTick,
	slotRouterNext:    slotProbe,
	slotSearch:        slotProbe,
	slotExtend:        slotProbe,
	slotBarrier:       slotTick,
	slotRouterObserve: slotBarrier,
	slotCoreObserve:   slotBarrier,
	slotCoreTune:      slotBarrier,
}

// span is one record of the trace file. A structural span (run, tick,
// ingest, probe, barrier) is one interval: count 1, busy_ns = end − start.
// A layer span aggregates every call of that name within its tick — the
// millions of per-call spans would not fit — so start/end bracket the first
// and last call while count and busy_ns carry the calls and their summed
// durations. Self time is busy_ns minus the children's busy_ns.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Busy   int64  `json:"busy_ns"`
}

type slotAcc struct {
	start, end  int64
	count, busy int64
	seen        bool
}

// tracer records the replay driver's spans in memory. It is a lap clock:
// every clock read closes one interval and opens the next, so each
// nanosecond between begin and finish is attributed to exactly one slot and
// a boundary costs one clock read, not two. A nil tracer records nothing,
// which is the untraced (reference / single-threaded baseline) mode.
type tracer struct {
	base  time.Time
	last  int64
	cur   [numSlots]slotAcc // the open tick's accumulators
	total [numSlots]slotAcc // whole-run sums per slot
	spans []span            // spans[0], id 1, is the run

	// search is the per-call histogram of bitindex.search durations, overall
	// and by wildcard-attribute count of the probe's access pattern.
	search   log2Hist
	searchW  [3]log2Hist
	insertMg slotAcc // inserts issued while a migration was draining
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.spans = append(t.spans, span{ID: 1, Name: slotNames[slotRun], Count: 1})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// lap attributes the time since the previous clock read to slot s as n
// calls and returns that duration.
func (t *tracer) lap(s slot, n int) int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	a := &t.cur[s]
	if !a.seen {
		a.seen, a.start = true, t.last
	}
	d := now - t.last
	a.end = now
	a.count += int64(n)
	a.busy += d
	t.last = now
	return d
}

// open starts a structural span: the time up to here belongs to its parent.
func (t *tracer) open(s slot) {
	if t == nil {
		return
	}
	if p := slotParents[s]; p >= 0 && t.cur[p].seen {
		t.lap(p, 0)
	} else {
		t.last = t.now()
	}
	t.cur[s] = slotAcc{seen: true, start: t.last, count: 1}
}

// close ends a structural span; the time since the last lap is its own.
func (t *tracer) close(s slot) {
	if t == nil {
		return
	}
	t.lap(s, 0)
}

// searchDone feeds one bitindex.search call's duration to the histograms.
func (t *tracer) searchDone(d int64, wild int) {
	if t == nil {
		return
	}
	t.search.add(d)
	if wild >= len(t.searchW) {
		wild = len(t.searchW) - 1
	}
	t.searchW[wild].add(d)
}

// insertWhileMigrating records one insert that also advanced a drain.
func (t *tracer) insertWhileMigrating(d int64) {
	if t == nil {
		return
	}
	t.insertMg.count++
	t.insertMg.busy += d
}

// endTick closes the open tick and appends its spans.
func (t *tracer) endTick() {
	if t == nil {
		return
	}
	t.close(slotTick)
	// window.expire's interval covers the deletes it caused.
	if d := t.cur[slotDelete]; d.seen {
		e := &t.cur[slotWindowExpire]
		e.busy += d.busy
		if d.end > e.end {
			e.end = d.end
		}
	}
	for _, s := range []slot{slotIngest, slotProbe, slotBarrier, slotTick} {
		a := &t.cur[s]
		a.busy = a.end - a.start
	}
	ids := [numSlots]int{slotRun: t.spans[0].ID}
	for s := slotTick; s < numSlots; s++ {
		a := t.cur[s]
		if !a.seen {
			continue
		}
		id := len(t.spans) + 1
		ids[s] = id
		t.spans = append(t.spans, span{ID: id, Parent: ids[slotParents[s]], Name: slotNames[s],
			Start: a.start, End: a.end, Count: a.count, Busy: a.busy})
		tot := &t.total[s]
		tot.count += a.count
		tot.busy += a.busy
		t.cur[s] = slotAcc{}
	}
}

// finish closes the run span.
func (t *tracer) finish() {
	if t == nil {
		return
	}
	end := t.now()
	r := &t.spans[0]
	r.End, r.Busy = end, end-r.Start
	t.total[slotRun] = slotAcc{count: 1, busy: r.Busy}
}

// selfTimes returns each slot's whole-run self time: busy minus the busy of
// its direct children.
func (t *tracer) selfTimes() [numSlots]int64 {
	var self [numSlots]int64
	for s := slot(0); s < numSlots; s++ {
		self[s] += t.total[s].busy
		if p := slotParents[s]; p >= 0 {
			self[p] -= t.total[s].busy
		}
	}
	return self
}

// nsPer is the slot's mean call duration in nanoseconds (0 with no calls).
func (t *tracer) nsPer(s slot) float64 {
	a := t.total[s]
	if a.count == 0 {
		return 0
	}
	return float64(a.busy) / float64(a.count)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// log2Hist is a power-of-two histogram of nanosecond durations: bucket k
// holds values in [2^(k-1), 2^k). It resolves a percentile to within its
// bucket (linear interpolation), which is what a per-call p99 over millions
// of sub-microsecond calls supports.
type log2Hist struct {
	buckets [48]uint64
	n       uint64
	sum     int64
}

func (h *log2Hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	k := bits.Len64(uint64(ns))
	if k >= len(h.buckets) {
		k = len(h.buckets) - 1
	}
	h.buckets[k]++
	h.n++
	h.sum += ns
}

func (h *log2Hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func (h *log2Hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for k, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := 0.0, 1.0
			if k > 0 {
				lo, hi = math.Ldexp(1, k-1), math.Ldexp(1, k)
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, len(h.buckets)-1)
}
