// Package multiquery extends the system to workloads of several SPJ queries
// over a shared set of streams — the paper's Section II notes its logic
// "equally applies to multiple SPJ queries", and this package makes that
// concrete: each stream keeps ONE state with ONE adaptive index whose join
// attribute set is the union over all queries, and the assessment methods
// aggregate the access patterns of every query's probes. The index tuner
// therefore balances bits across queries automatically, which is the whole
// point of pattern-frequency-driven selection.
package multiquery

import (
	"fmt"
	"sort"

	"amri/internal/query"
)

// QuerySpec is one SPJ query of a multi-query workload: equality predicates
// over the workload's shared streams plus its own window length.
type QuerySpec struct {
	Preds  []query.Predicate
	Window int64
}

// Workload is a set of queries over shared streams.
type Workload struct {
	Streams []query.StreamSpec
	Queries []QuerySpec
}

// JoinAttr is one entry of a state's union join attribute set: a tuple
// attribute joined to one partner stream's attribute, used by one or more
// queries.
type JoinAttr struct {
	// Attr is the attribute position within the state's own tuples.
	Attr int
	// Partner and PartnerAttr identify the other side of the predicate.
	Partner     int
	PartnerAttr int
	// Queries is the bitmask of query ids using this predicate.
	Queries uint32
}

// State is the shared per-stream state spec: the union JAS across queries.
// Pattern bit i refers to JAS[i].
type State struct {
	Stream int
	JAS    []JoinAttr
}

// NumAttrs returns the size of the union join attribute set.
func (s *State) NumAttrs() int { return len(s.JAS) }

// PatternFor returns the access pattern a probe into this state uses for
// query q when the composite covers the streams in doneMask: only JAS
// entries belonging to q whose partner is covered become constrained.
func (s *State) PatternFor(q int, doneMask uint32) query.Pattern {
	var p query.Pattern
	for i, ja := range s.JAS {
		if ja.Queries&(1<<uint(q)) != 0 && doneMask&(1<<uint(ja.Partner)) != 0 {
			p = p.With(i)
		}
	}
	return p
}

// QueryView is the compiled per-query routing view.
type QueryView struct {
	ID int
	// Streams lists the participating stream ids in increasing order.
	Streams []int
	// Mask is the bitmask of participating streams.
	Mask uint32
	// Window is the query's sliding-window length in ticks.
	Window int64
}

// Participates reports whether stream s belongs to the query.
func (v *QueryView) Participates(s int) bool { return v.Mask&(1<<uint(s)) != 0 }

// Compiled is a validated multi-query workload with derived shared states.
type Compiled struct {
	Streams []query.StreamSpec
	States  []*State
	Queries []*QueryView
	// MaxWindow is the longest query window: shared states must retain
	// tuples for the longest interested query.
	MaxWindow int64
}

// Compile validates the workload and derives the shared per-stream states.
// Distinct queries may join the same stream pair via different attributes;
// within one query a stream pair may carry at most one predicate.
func Compile(w Workload) (*Compiled, error) {
	if len(w.Streams) == 0 {
		return nil, fmt.Errorf("multiquery: no streams")
	}
	if len(w.Queries) == 0 || len(w.Queries) > 32 {
		return nil, fmt.Errorf("multiquery: need 1..32 queries, got %d", len(w.Queries))
	}
	c := &Compiled{Streams: w.Streams}
	c.States = make([]*State, len(w.Streams))
	for s := range w.Streams {
		c.States[s] = &State{Stream: s}
	}

	addJA := func(s int, ja JoinAttr) {
		st := c.States[s]
		for i := range st.JAS {
			e := &st.JAS[i]
			if e.Attr == ja.Attr && e.Partner == ja.Partner && e.PartnerAttr == ja.PartnerAttr {
				e.Queries |= ja.Queries
				return
			}
		}
		st.JAS = append(st.JAS, ja)
	}

	for qi, spec := range w.Queries {
		if spec.Window <= 0 {
			return nil, fmt.Errorf("multiquery: query %d: window must be positive", qi)
		}
		if spec.Window > c.MaxWindow {
			c.MaxWindow = spec.Window
		}
		view := &QueryView{ID: qi, Window: spec.Window}
		type pair struct{ a, b int }
		seen := map[pair]bool{}
		for _, p := range spec.Preds {
			if p.Left < 0 || p.Left >= len(w.Streams) || p.Right < 0 || p.Right >= len(w.Streams) {
				return nil, fmt.Errorf("multiquery: query %d: predicate %v references unknown stream", qi, p)
			}
			if p.Left == p.Right {
				return nil, fmt.Errorf("multiquery: query %d: self join %v", qi, p)
			}
			if p.LeftAttr < 0 || p.LeftAttr >= w.Streams[p.Left].Arity ||
				p.RightAttr < 0 || p.RightAttr >= w.Streams[p.Right].Arity {
				return nil, fmt.Errorf("multiquery: query %d: predicate %v attribute out of range", qi, p)
			}
			k := pair{min(p.Left, p.Right), max(p.Left, p.Right)}
			if seen[k] {
				return nil, fmt.Errorf("multiquery: query %d: duplicate pair %v", qi, k)
			}
			seen[k] = true
			view.Mask |= 1<<uint(p.Left) | 1<<uint(p.Right)
			qbit := uint32(1) << uint(qi)
			addJA(p.Left, JoinAttr{Attr: p.LeftAttr, Partner: p.Right, PartnerAttr: p.RightAttr, Queries: qbit})
			addJA(p.Right, JoinAttr{Attr: p.RightAttr, Partner: p.Left, PartnerAttr: p.LeftAttr, Queries: qbit})
		}
		if view.Mask == 0 {
			return nil, fmt.Errorf("multiquery: query %d has no predicates", qi)
		}
		for s := 0; s < len(w.Streams); s++ {
			if view.Participates(s) {
				view.Streams = append(view.Streams, s)
			}
		}
		c.Queries = append(c.Queries, view)
	}

	// Stable JAS ordering: by own attribute, then partner — pattern bits
	// must not depend on predicate listing order.
	for _, st := range c.States {
		sort.Slice(st.JAS, func(i, j int) bool {
			if st.JAS[i].Attr != st.JAS[j].Attr {
				return st.JAS[i].Attr < st.JAS[j].Attr
			}
			return st.JAS[i].Partner < st.JAS[j].Partner
		})
		if len(st.JAS) > query.MaxAttrs {
			return nil, fmt.Errorf("multiquery: stream %d union JAS has %d attrs, max %d",
				st.Stream, len(st.JAS), query.MaxAttrs)
		}
	}
	return c, nil
}
