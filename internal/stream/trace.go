package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"amri/internal/query"
	"amri/internal/tuple"
)

// Source produces the workload arrivals of one tick. Generator implements
// it for synthetic workloads; Trace replays recorded ones — the stand-in
// for the unpublished real-data experiments: any recorded stream (or the
// output of cmd/amrigen) can be fed through the engine unchanged.
type Source interface {
	Tick(tick int64) []*tuple.Tuple
}

var _ Source = (*Generator)(nil)

// Trace is a replayable workload loaded from the CSV format cmd/amrigen
// emits: a "tick,stream,seq,attr0,attr1,..." header followed by one row
// per tuple.
type Trace struct {
	byTick  map[int64][]*tuple.Tuple
	maxTick int64
	count   int
	arity   int
}

// ParseTrace reads a workload CSV. payloadBytes is the simulated payload
// attached to every replayed tuple (the CSV carries only join attributes).
// Arrival stamps are assigned in file order, so a trace replays with the
// same exactly-once join semantics as a live generator.
func ParseTrace(r io.Reader, payloadBytes int) (*Trace, error) {
	tr := &Trace{byTick: make(map[int64][]*tuple.Tuple), arity: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	arrival := uint64(0)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "tick,") {
			continue // header
		}
		fields := strings.Split(text, ",")
		if len(fields) < 4 {
			return nil, fmt.Errorf("stream: trace line %d: want tick,stream,seq,attrs..., got %q", line, text)
		}
		tick, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: trace line %d: bad tick: %v", line, err)
		}
		sid, err := strconv.Atoi(fields[1])
		if err != nil || sid < 0 {
			return nil, fmt.Errorf("stream: trace line %d: bad stream id", line)
		}
		seq, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: trace line %d: bad seq: %v", line, err)
		}
		attrs := make([]tuple.Value, len(fields)-3)
		for i, f := range fields[3:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: trace line %d: bad attribute %d: %v", line, i, err)
			}
			attrs[i] = v
		}
		if tr.arity == -1 {
			tr.arity = len(attrs)
		} else if tr.arity != len(attrs) {
			return nil, fmt.Errorf("stream: trace line %d: arity %d != %d", line, len(attrs), tr.arity)
		}
		t := tuple.New(sid, seq, tick, attrs)
		t.PayloadBytes = payloadBytes
		arrival++
		t.Arrival = arrival
		tr.byTick[tick] = append(tr.byTick[tick], t)
		if tick > tr.maxTick {
			tr.maxTick = tick
		}
		tr.count++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: trace read: %w", err)
	}
	if tr.count == 0 {
		return nil, fmt.Errorf("stream: empty trace")
	}
	return tr, nil
}

// Validate reports whether the query can consume the trace: every row must
// name one of the query's streams and carry at least the attributes that
// stream's tuples have. ParseTrace cannot check this (it does not know the
// query), and a row that does not fit would otherwise index past the
// engine's operator table or a tuple's attributes mid-run. The error names
// the first offending row, in file order.
func (tr *Trace) Validate(q *query.Query) error {
	var bad *tuple.Tuple
	for _, ts := range tr.byTick {
		for _, t := range ts {
			if (t.Stream >= q.NumStreams() || len(t.Attrs) < q.Streams[t.Stream].Arity) && (bad == nil || t.Arrival < bad.Arrival) {
				bad = t
			}
		}
	}
	switch {
	case bad == nil:
		return nil
	case bad.Stream >= q.NumStreams():
		return fmt.Errorf("stream: trace tick %d: stream %d, but the query has streams 0..%d", bad.TS, bad.Stream, q.NumStreams()-1)
	default:
		return fmt.Errorf("stream: trace tick %d: stream %d tuple has %d attributes, the query's have %d",
			bad.TS, bad.Stream, len(bad.Attrs), q.Streams[bad.Stream].Arity)
	}
}

// Tick returns the recorded arrivals of the tick (nil when none).
func (tr *Trace) Tick(tick int64) []*tuple.Tuple { return tr.byTick[tick] }

// MaxTick returns the last tick with recorded arrivals.
func (tr *Trace) MaxTick() int64 { return tr.maxTick }

// Len returns the total number of recorded tuples.
func (tr *Trace) Len() int { return tr.count }

// Arity returns the attribute count of the recorded tuples.
func (tr *Trace) Arity() int { return tr.arity }
