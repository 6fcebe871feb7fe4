package query

import (
	"fmt"
	"sort"
)

// StreamSpec describes one stream in the FROM clause.
type StreamSpec struct {
	// Name is the stream's display name (e.g. "StreamA").
	Name string
	// Arity is the number of attributes each tuple carries. Join
	// attributes are a subset of these positions.
	Arity int
}

// Predicate is an equality join predicate Left.LeftAttr = Right.RightAttr
// from the WHERE clause. The paper's join expressions include inequalities;
// the index design (like any hash-partitioned scheme) accelerates equality,
// which is what the evaluation exercises, so this model is equality-only.
type Predicate struct {
	Left, LeftAttr   int // stream id and attribute position on the left
	Right, RightAttr int // stream id and attribute position on the right
}

// String renders the predicate like "S0.a1 = S2.a0".
func (p Predicate) String() string {
	return fmt.Sprintf("S%d.a%d = S%d.a%d", p.Left, p.LeftAttr, p.Right, p.RightAttr)
}

// JoinAttr is one entry of a state's join attribute set (JAS): a tuple
// attribute that appears in at least one join predicate, together with the
// partner it joins to.
type JoinAttr struct {
	// Attr is the attribute position within the state's own tuples.
	Attr int
	// Partner is the stream id on the other side of the predicate.
	Partner int
	// PartnerAttr is the attribute position within the partner's tuples.
	PartnerAttr int
}

// StateSpec is the per-stream view a STeM operator needs: the stream's JAS
// in a fixed order, so access patterns over it are well defined.
type StateSpec struct {
	// Stream is the stream this state stores tuples from.
	Stream int
	// JAS lists the join attributes in pattern-bit order: pattern bit i
	// refers to JAS[i].
	JAS []JoinAttr
	// byPartner maps a partner stream id to the JAS position joining it,
	// assuming at most one predicate per stream pair (the paper's setup).
	byPartner map[int]int
}

// NumAttrs returns the size of the state's join attribute set.
func (s *StateSpec) NumAttrs() int { return len(s.JAS) }

// PosForPartner returns the JAS position that joins this state to the given
// partner stream, and whether such a predicate exists.
func (s *StateSpec) PosForPartner(partner int) (int, bool) {
	p, ok := s.byPartner[partner]
	return p, ok
}

// PatternForDone returns the access pattern a probe into this state uses
// when the probing composite already covers the streams in doneMask: every
// JAS attribute whose partner stream is covered becomes a constrained
// position. This is exactly how a tuple's query path determines its search
// criteria (paper Section I).
func (s *StateSpec) PatternForDone(doneMask uint32) Pattern {
	var p Pattern
	for i, ja := range s.JAS {
		if doneMask&(1<<uint(ja.Partner)) != 0 {
			p = p.With(i)
		}
	}
	return p
}

// Query is a compiled SPJ query: streams, predicates, window length, and
// the derived per-state specs.
type Query struct {
	// Streams lists the FROM-clause streams; stream ids index this slice.
	Streams []StreamSpec
	// Preds lists the WHERE-clause equality join predicates.
	Preds []Predicate
	// WindowTicks is the sliding-window length in virtual time ticks; a
	// stored tuple expires WindowTicks after its arrival timestamp.
	WindowTicks int64
	// Filters are the WHERE clause's selection predicates, applied at
	// ingest (see AddFilter).
	Filters []Filter
	// States holds the derived per-stream state specs, indexed by stream.
	States []*StateSpec
}

// Compile validates the streams and predicates and derives the per-state
// join attribute sets. Every stream must appear, every predicate must
// reference valid streams/attributes, and no stream pair may be joined by
// more than one predicate (the paper's experimental setup: "every stream is
// joined to each of the 3 other streams via a unique join attribute").
func Compile(streams []StreamSpec, preds []Predicate, windowTicks int64) (*Query, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("query: no streams")
	}
	if windowTicks <= 0 {
		return nil, fmt.Errorf("query: window must be positive, got %d", windowTicks)
	}
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	for _, p := range preds {
		if p.Left < 0 || p.Left >= len(streams) || p.Right < 0 || p.Right >= len(streams) {
			return nil, fmt.Errorf("query: predicate %v references unknown stream", p)
		}
		if p.Left == p.Right {
			return nil, fmt.Errorf("query: self-join predicate %v not supported", p)
		}
		if p.LeftAttr < 0 || p.LeftAttr >= streams[p.Left].Arity {
			return nil, fmt.Errorf("query: predicate %v: bad left attribute", p)
		}
		if p.RightAttr < 0 || p.RightAttr >= streams[p.Right].Arity {
			return nil, fmt.Errorf("query: predicate %v: bad right attribute", p)
		}
		k := pair{min(p.Left, p.Right), max(p.Left, p.Right)}
		if seen[k] {
			return nil, fmt.Errorf("query: streams %d and %d joined by more than one predicate", k.a, k.b)
		}
		seen[k] = true
	}

	q := &Query{Streams: streams, Preds: preds, WindowTicks: windowTicks}
	q.States = make([]*StateSpec, len(streams))
	for s := range streams {
		spec := &StateSpec{Stream: s, byPartner: make(map[int]int)}
		for _, p := range preds {
			switch s {
			case p.Left:
				spec.JAS = append(spec.JAS, JoinAttr{Attr: p.LeftAttr, Partner: p.Right, PartnerAttr: p.RightAttr})
			case p.Right:
				spec.JAS = append(spec.JAS, JoinAttr{Attr: p.RightAttr, Partner: p.Left, PartnerAttr: p.LeftAttr})
			}
		}
		// Fix JAS order by own attribute position so pattern bits are
		// stable regardless of predicate listing order.
		sort.Slice(spec.JAS, func(i, j int) bool { return spec.JAS[i].Attr < spec.JAS[j].Attr })
		if len(spec.JAS) > MaxAttrs {
			return nil, fmt.Errorf("query: stream %d has %d join attributes, max %d", s, len(spec.JAS), MaxAttrs)
		}
		for i, ja := range spec.JAS {
			spec.byPartner[ja.Partner] = i
		}
		q.States[s] = spec
	}
	return q, nil
}

// NumStreams returns the number of streams in the FROM clause.
func (q *Query) NumStreams() int { return len(q.Streams) }

// AllDoneMask returns the composite coverage mask meaning "all streams
// joined".
func (q *Query) AllDoneMask() uint32 { return 1<<uint(len(q.Streams)) - 1 }

// FourWay builds the paper's experimental query: a 4-way join across 4
// streams where every pair of streams is joined via its own attribute, so
// every state carries 3 join attributes and supports 7 possible non-empty
// access patterns. Attribute layout: stream s's attribute k joins it to its
// k-th partner in increasing stream order.
func FourWay(windowTicks int64) *Query {
	const n = 4
	streams := make([]StreamSpec, n)
	for i := range streams {
		streams[i] = StreamSpec{Name: fmt.Sprintf("Stream%c", 'A'+i), Arity: n - 1}
	}
	attrFor := func(s, partner int) int {
		// Partners of s in increasing order occupy attrs 0..n-2.
		k := 0
		for t := 0; t < n; t++ {
			if t == s {
				continue
			}
			if t == partner {
				return k
			}
			k++
		}
		panic("query: partner == self")
	}
	var preds []Predicate
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			preds = append(preds, Predicate{
				Left: a, LeftAttr: attrFor(a, b),
				Right: b, RightAttr: attrFor(b, a),
			})
		}
	}
	q, err := Compile(streams, preds, windowTicks)
	if err != nil {
		panic("query: FourWay construction invalid: " + err.Error())
	}
	return q
}

// PackageTracking builds the single-state sensor schema from the paper's
// Section I-A example: tuples with priority code (A1), package id (A2) and
// location id (A3). It is modelled as one stream joined to three lookup
// streams so that all combinations of the three attributes arise as access
// patterns.
func PackageTracking(windowTicks int64) *Query {
	streams := []StreamSpec{
		{Name: "Sensors", Arity: 3},
		{Name: "PriorityFeed", Arity: 1},
		{Name: "PackageFeed", Arity: 1},
		{Name: "LocationFeed", Arity: 1},
	}
	preds := []Predicate{
		{Left: 0, LeftAttr: 0, Right: 1, RightAttr: 0}, // A1: priority code
		{Left: 0, LeftAttr: 1, Right: 2, RightAttr: 0}, // A2: package id
		{Left: 0, LeftAttr: 2, Right: 3, RightAttr: 0}, // A3: location id
	}
	q, err := Compile(streams, preds, windowTicks)
	if err != nil {
		panic("query: PackageTracking construction invalid: " + err.Error())
	}
	return q
}

// NewChain builds an n-way chain join: stream i joins stream i+1 via its
// own attribute pair. End streams carry one join attribute, middle streams
// two. It rejects n < 2 and surfaces compilation failures as errors —
// the form callers with runtime-provided shapes should use.
func NewChain(n int, windowTicks int64) (*Query, error) {
	if n < 2 {
		return nil, fmt.Errorf("query: Chain needs at least 2 streams, got %d", n)
	}
	streams := make([]StreamSpec, n)
	for i := range streams {
		arity := 2
		if i == 0 || i == n-1 {
			arity = 1
		}
		streams[i] = StreamSpec{Name: fmt.Sprintf("Chain%c", 'A'+i), Arity: arity}
	}
	var preds []Predicate
	for i := 0; i+1 < n; i++ {
		leftAttr := 1 // middle streams: attr 0 joins left, attr 1 joins right
		if i == 0 {
			leftAttr = 0
		}
		preds = append(preds, Predicate{Left: i, LeftAttr: leftAttr, Right: i + 1, RightAttr: 0})
	}
	q, err := Compile(streams, preds, windowTicks)
	if err != nil {
		return nil, fmt.Errorf("query: Chain construction invalid: %w", err)
	}
	return q, nil
}

// Chain is NewChain for compile-time-constant shapes: it panics on an
// invalid n instead of returning an error.
func Chain(n int, windowTicks int64) *Query {
	q, err := NewChain(n, windowTicks)
	if err != nil {
		panic(err.Error())
	}
	return q
}

// NewStar builds an n-way star join: stream 0 is the hub, joined to each
// of the n-1 satellites via its own attribute. The hub's state carries n-1
// join attributes (2^(n-1)-1 possible access patterns — the setting where
// compact assessment matters most); satellites carry one each. It rejects
// n < 2 and surfaces compilation failures as errors.
func NewStar(n int, windowTicks int64) (*Query, error) {
	if n < 2 {
		return nil, fmt.Errorf("query: Star needs at least 2 streams, got %d", n)
	}
	streams := make([]StreamSpec, n)
	streams[0] = StreamSpec{Name: "Hub", Arity: n - 1}
	for i := 1; i < n; i++ {
		streams[i] = StreamSpec{Name: fmt.Sprintf("Sat%d", i), Arity: 1}
	}
	var preds []Predicate
	for i := 1; i < n; i++ {
		preds = append(preds, Predicate{Left: 0, LeftAttr: i - 1, Right: i, RightAttr: 0})
	}
	q, err := Compile(streams, preds, windowTicks)
	if err != nil {
		return nil, fmt.Errorf("query: Star construction invalid: %w", err)
	}
	return q, nil
}

// Star is NewStar for compile-time-constant shapes: it panics on an
// invalid n instead of returning an error.
func Star(n int, windowTicks int64) *Query {
	q, err := NewStar(n, windowTicks)
	if err != nil {
		panic(err.Error())
	}
	return q
}
