// Package tuple defines the stream tuple model shared by every other
// subsystem: fixed-arity tuples whose join attributes are uint64 values,
// composite (joined) tuples, and byte-level memory accounting used by the
// simulation's memory meter.
//
// Tuples are deliberately lean. A data stream management system touches
// every tuple many times (insert, expire, probe, route), so the layout keeps
// the join attributes in a small slice and represents the non-join payload
// only by its size in bytes — the experiments never inspect payload content,
// only its memory footprint.
package tuple

import (
	"fmt"
	"strings"
)

// Value is a single join-attribute value. All join attributes are modelled
// as 64-bit unsigned keys; the synthetic generators draw them from bounded
// domains and real encodings (ids, codes, locations) hash into this space.
type Value = uint64

// Tuple is one stream element. The zero value is a tuple of no attributes.
type Tuple struct {
	// Stream identifies the originating stream (index into the query's
	// stream list).
	Stream int
	// Seq is the per-stream sequence number, assigned by the generator.
	Seq uint64
	// TS is the virtual arrival timestamp in simulation ticks. Window
	// expiry compares against it.
	TS int64
	// Arrival is the 1-based global arrival stamp across all streams,
	// assigned by the workload source. Join operators use it to produce
	// each result exactly once: a probe driven by tuple t matches only
	// stored tuples with a smaller Arrival, so every k-way result is
	// discovered solely by its newest member's cascade. Zero means
	// unstamped — operators then skip the dedup filter.
	Arrival uint64
	// Attrs holds the join attribute values in schema order.
	Attrs []Value
	// PayloadBytes is the simulated size of the non-join payload. It is
	// charged to the memory meter but never materialized.
	PayloadBytes int
}

// New returns a tuple with the given identity and attribute values. Up to
// inlineAttrs values are copied into storage co-allocated with the tuple
// header, in a block sized to the arity class (2, 4 or 8 values: Go's 80-,
// 96- and 128-byte size classes) so a narrow tuple does not pay for eight
// slots; wider tuples keep the caller's slice, which the tuple then owns.
// Co-location serves the probe's tag survivors: the bucket scan rejects
// most candidates from the bucket entry's tag without touching the tuple,
// and for the few it does dereference, the header and Attrs are read back
// to back — in one allocation the attribute load hits the header's line or
// the one after it (adjacent-line prefetch) instead of a second dependent
// miss.
func New(stream int, seq uint64, ts int64, attrs []Value) *Tuple {
	n := len(attrs)
	var t *Tuple
	var vals []Value
	switch {
	case n == 0 || n > inlineAttrs:
		return &Tuple{Stream: stream, Seq: seq, TS: ts, Attrs: attrs[:n:n]}
	case n <= 2:
		blk := new(tupleBlock2)
		t, vals = &blk.t, blk.vals[:]
	case n <= 4:
		blk := new(tupleBlock4)
		t, vals = &blk.t, blk.vals[:]
	default:
		blk := new(tupleBlock8)
		t, vals = &blk.t, blk.vals[:]
	}
	copy(vals, attrs)
	*t = Tuple{Stream: stream, Seq: seq, TS: ts, Attrs: vals[:n:n]}
	return t
}

// inlineAttrs is the widest arity stored inline with the header.
const inlineAttrs = 8

// The co-allocated layouts New builds, one per arity class. Each must fit
// the allocator size class named in New's comment (pinned by a test): a
// new Tuple field that pushes one over silently costs the next class up.
type (
	tupleBlock2 struct {
		t    Tuple
		vals [2]Value
	}
	tupleBlock4 struct {
		t    Tuple
		vals [4]Value
	}
	tupleBlock8 struct {
		t    Tuple
		vals [inlineAttrs]Value
	}
)

// Attr returns the i-th join attribute value.
func (t *Tuple) Attr(i int) Value { return t.Attrs[i] }

// Arity returns the number of join attributes.
func (t *Tuple) Arity() int { return len(t.Attrs) }

// perTupleOverhead approximates the fixed in-memory footprint of a stored
// tuple: struct header, slice header, bookkeeping pointer in the store.
const perTupleOverhead = 64

// MemBytes returns the simulated resident size of the tuple: fixed
// overhead, 8 bytes per join attribute, plus the payload.
func (t *Tuple) MemBytes() int {
	return perTupleOverhead + 8*len(t.Attrs) + t.PayloadBytes
}

// String renders the tuple compactly for logs and test failures.
func (t *Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t[s%d#%d@%d](", t.Stream, t.Seq, t.TS)
	for i, v := range t.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Composite is a partial or complete join result: one tuple per stream that
// has been joined so far. Parts is indexed by stream id; nil entries mark
// streams not yet joined.
type Composite struct {
	// Parts holds the per-stream component tuples, indexed by stream id.
	Parts []*Tuple
	// Done is the set of stream ids present, as a bitmask (bit i set when
	// Parts[i] != nil). Kept alongside Parts so routing can test coverage
	// without scanning.
	Done uint32
	// Origin is the stream id of the tuple that started this cascade: the
	// driver whose Arrival stamp gates which stored tuples probes may
	// match (see Tuple.Arrival).
	Origin int
}

// NewComposite starts a composite holding a single source tuple, sized for
// a query over nStreams streams.
func NewComposite(nStreams int, t *Tuple) *Composite {
	c := &Composite{Parts: make([]*Tuple, nStreams), Origin: t.Stream}
	c.Parts[t.Stream] = t
	c.Done = 1 << uint(t.Stream)
	return c
}

// Driver returns the cascade's originating tuple.
func (c *Composite) Driver() *Tuple { return c.Parts[c.Origin] }

// Extend returns a new composite with t added. It copies the part list so
// sibling join branches never alias each other.
func (c *Composite) Extend(t *Tuple) *Composite {
	parts := make([]*Tuple, len(c.Parts))
	copy(parts, c.Parts)
	parts[t.Stream] = t
	return &Composite{Parts: parts, Done: c.Done | 1<<uint(t.Stream), Origin: c.Origin}
}

// ExtendInto is Extend writing into a recycled composite of the same
// arity instead of allocating: every Parts entry is overwritten, so a
// spare that once held other tuples carries nothing over. It exists for
// the pipeline's per-worker composite freelists — a probe's driving
// composite dies when its probe completes, and the hot dispatch path
// recycles it into the next extension rather than leaving it to the GC.
// A nil spare (or an arity mismatch) falls back to Extend.
func (c *Composite) ExtendInto(spare *Composite, t *Tuple) *Composite {
	if spare == nil || len(spare.Parts) != len(c.Parts) {
		return c.Extend(t)
	}
	copy(spare.Parts, c.Parts)
	spare.Parts[t.Stream] = t
	spare.Done = c.Done | 1<<uint(t.Stream)
	spare.Origin = c.Origin
	return spare
}

// Has reports whether the composite already contains a tuple from stream s.
func (c *Composite) Has(s int) bool { return c.Done&(1<<uint(s)) != 0 }

// Count returns the number of streams joined so far.
func (c *Composite) Count() int {
	n := 0
	for d := c.Done; d != 0; d &= d - 1 {
		n++
	}
	return n
}

// Complete reports whether all nStreams components are present.
func (c *Composite) Complete(nStreams int) bool {
	return c.Done == (1<<uint(nStreams))-1
}

// MemBytes returns the simulated resident size of the composite shell
// (component tuples are shared and accounted where they are stored).
func (c *Composite) MemBytes() int { return 32 + 8*len(c.Parts) }

// String renders the composite for logs and test failures.
func (c *Composite) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	first := true
	for _, p := range c.Parts {
		if p == nil {
			continue
		}
		if !first {
			b.WriteString(" ⋈ ")
		}
		first = false
		b.WriteString(p.String())
	}
	b.WriteString("⟩")
	return b.String()
}
