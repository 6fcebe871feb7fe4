// Package window provides the sliding-window retention structure shared by
// every state implementation: tuples bucketed by logical timestamp, expired
// exactly when their timestamp ages out of the window — correct under any
// bounded arrival disorder, with an optional watermark slack that retains
// tuples long enough for late drivers to find their event-time matches.
package window

import "amri/internal/tuple"

// Buckets retains tuples per logical timestamp.
type Buckets struct {
	window int64
	slack  int64

	byTS map[int64][]*tuple.Tuple
	// minTS..maxTS spans every retained timestamp (valid once haveMin):
	// Expire advances minTS, Add widens either end.
	minTS, maxTS int64
	haveMin      bool
	count        int
}

// New builds an empty retention structure with the given window length (in
// ticks) and watermark slack (extra retention for out-of-order arrivals).
func New(windowTicks, slack int64) *Buckets {
	return &Buckets{
		window: windowTicks,
		slack:  slack,
		byTS:   make(map[int64][]*tuple.Tuple),
	}
}

// Add records a stored tuple under its timestamp.
func (b *Buckets) Add(t *tuple.Tuple) {
	b.byTS[t.TS] = append(b.byTS[t.TS], t)
	if !b.haveMin || t.TS < b.minTS {
		b.minTS = t.TS
	}
	if !b.haveMin || t.TS > b.maxTS {
		b.maxTS = t.TS
	}
	b.haveMin = true
	b.count++
}

// Expire calls drop for every retained tuple whose timestamp has aged out
// at the given time (TS ≤ now − window − slack) and forgets it, returning
// the number dropped. Buckets are visited in timestamp order.
func (b *Buckets) Expire(now int64, drop func(*tuple.Tuple)) int {
	if !b.haveMin {
		return 0
	}
	dropped := 0
	for ts := b.minTS; ts <= now-b.window-b.slack; ts++ {
		bucket, ok := b.byTS[ts]
		b.minTS = ts + 1
		if !ok {
			continue
		}
		for _, t := range bucket {
			drop(t)
			dropped++
		}
		b.count -= len(bucket)
		delete(b.byTS, ts)
	}
	return dropped
}

// EachOrdered visits every retained tuple in ascending timestamp order
// (insertion order within a timestamp) — the deterministic order
// checkpoints are captured and encoded in; a walk in map order would make
// the same state serialize differently run to run. Like Expire it steps
// through the timestamp span rather than sorting keys: the span is at most
// window + slack + arrival disorder, and a walk this small inlines into its
// caller, so visit is a direct call per tuple instead of a closure call —
// the operator snapshot visits a whole window every CheckpointEvery
// inserts.
func (b *Buckets) EachOrdered(visit func(*tuple.Tuple)) {
	for ts := b.minTS; ts <= b.maxTS; ts++ {
		for _, t := range b.byTS[ts] {
			visit(t)
		}
	}
}

// Len returns the number of retained tuples.
func (b *Buckets) Len() int { return b.count }

// NumBuckets returns the number of distinct retained timestamps.
func (b *Buckets) NumBuckets() int { return len(b.byTS) }

// Window returns the configured window length.
func (b *Buckets) Window() int64 { return b.window }

// Slack returns the configured watermark slack.
func (b *Buckets) Slack() int64 { return b.slack }

// SetSlack adjusts the watermark slack (takes effect on the next Expire).
func (b *Buckets) SetSlack(slack int64) { b.slack = slack }

// MemBytes returns the simulated resident size of the retention metadata
// (the tuples themselves are accounted by their store).
func (b *Buckets) MemBytes() int {
	return 64 + 48*len(b.byTS) + 8*b.count
}
