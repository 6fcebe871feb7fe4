// Package stem implements the STeM operator (Raman et al.): the unary join
// state module each stream owns. A STeM stores its stream's recent tuples
// in a pluggable storage backend (bit-address index, multi-hash-index, or
// plain scan), expires them as the sliding window advances, answers probe
// (search) requests from composites routed to it, and feeds every probe's
// access pattern to the state's assessor. All work is charged to the
// simulation clock at the configured cost table.
package stem

import (
	"amri/internal/assess"
	"amri/internal/bitindex"
	"amri/internal/query"
	"amri/internal/sim"
	"amri/internal/storage"
	"amri/internal/tuple"
	"amri/internal/window"
)

// STeM is one state module.
type STeM struct {
	// Spec is the state's compiled view of the query (its JAS).
	Spec *query.StateSpec
	// Assessor collects access-pattern statistics; nil disables assessment
	// (the non-adapting contenders after warmup).
	Assessor assess.Assessor

	store storage.Store
	costs sim.CostTable
	clock *sim.Clock

	// retained buckets stored tuples by logical timestamp so expiry is
	// exact even when arrivals are out of order.
	retained *window.Buckets

	valsBuf  []tuple.Value  // scratch for probe values
	matchBuf []*tuple.Tuple // scratch for probe matches, reused across probes
}

// ProbeResult reports one probe (search request) against the state.
type ProbeResult struct {
	// Pattern is the access pattern the composite's coverage induced.
	Pattern query.Pattern
	// Matches are the stored tuples satisfying every constrained
	// predicate.
	Matches []*tuple.Tuple
	// Candidates is how many stored tuples the index surfaced for
	// comparison; Comparisons is the attribute equality checks performed.
	Candidates  int
	Comparisons int
	// Stats is the raw index work (hashes, buckets, tuples).
	Stats bitindex.Stats
}

// New builds a STeM over the given backend. window is the sliding-window
// length in ticks; clock receives every operation's cost.
func New(spec *query.StateSpec, store storage.Store, a assess.Assessor, windowTicks int64, costs sim.CostTable, clock *sim.Clock) *STeM {
	return &STeM{
		Spec:     spec,
		Assessor: a,
		store:    store,
		costs:    costs,
		clock:    clock,
		retained: window.New(windowTicks, 0),
		valsBuf:  make([]tuple.Value, spec.NumAttrs()),
	}
}

// SetSlack sets the watermark lag: tuples are retained slack ticks beyond
// the window so that drivers arriving up to slack ticks late still see
// every event-time match. The probe-side event-time filter keeps the
// window semantics exact.
func (s *STeM) SetSlack(slack int64) { s.retained.SetSlack(slack) }

// Store exposes the backend (the tuner migrates it directly).
func (s *STeM) Store() storage.Store { return s.store }

// Len returns the number of stored tuples.
func (s *STeM) Len() int { return s.store.Len() }

// Insert stores an arriving tuple and charges maintenance.
func (s *STeM) Insert(t *tuple.Tuple) {
	st := s.store.Insert(t)
	s.clock.ChargeCat(sim.CatMaintain,
		s.costs.Insert+sim.Units(st.Hashes)*s.costs.Hash+sim.Units(st.KeyOps)*s.costs.KeyMaint)
	s.retained.Add(t)
}

// Expire removes every tuple whose timestamp has aged out of the window,
// returning how many were dropped. Expiry walks timestamp buckets, so it is
// exact regardless of the arrival order the tuples came in.
func (s *STeM) Expire(now int64) int {
	return s.retained.Expire(now, func(t *tuple.Tuple) {
		st, ok := s.store.Delete(t)
		if ok {
			s.clock.ChargeCat(sim.CatMaintain,
				s.costs.Insert+sim.Units(st.Hashes)*s.costs.Hash+sim.Units(st.KeyOps)*s.costs.KeyMaint)
		}
	})
}

// Probe executes one search request: the composite's coverage determines
// the access pattern and the probe values; candidates surfaced by the
// backend are verified against every constrained attribute. The assessor
// observes the pattern, and all index and comparison work is charged.
// The returned Matches slice aliases receiver-attached scratch storage
// and is valid only until the next Probe on this state.
//
//amrivet:hotpath per-probe search path, one call per routed composite
func (s *STeM) Probe(c *tuple.Composite) ProbeResult {
	p := s.Spec.PatternForDone(c.Done)
	for i, ja := range s.Spec.JAS {
		if p.Has(i) {
			s.valsBuf[i] = c.Parts[ja.Partner].Attrs[ja.PartnerAttr]
		} else {
			s.valsBuf[i] = 0
		}
	}

	if s.Assessor != nil {
		s.Assessor.Observe(p)
		s.clock.ChargeCat(sim.CatAssess, s.costs.Observe)
	}

	res := ProbeResult{Pattern: p}
	s.matchBuf = s.matchBuf[:0]
	drv := c.Driver()
	driver := drv.Arrival
	st := s.store.Probe(p, s.valsBuf, func(x *tuple.Tuple) bool {
		res.Candidates++
		// Exactly-once results: a cascade driven by tuple t only matches
		// tuples that arrived before t, so every k-way result is produced
		// solely by its newest member. Unstamped drivers (Arrival 0) skip
		// the filter.
		if driver != 0 && x.Arrival >= driver {
			res.Comparisons++
			return true
		}
		// Event-time window: the driver only joins tuples within its own
		// window, regardless of how late either side arrived (the slack
		// retention guarantees such tuples are still stored).
		if driver != 0 && x.TS <= drv.TS-s.retained.Window() {
			res.Comparisons++
			return true
		}
		match := true
		for i, ja := range s.Spec.JAS {
			if !p.Has(i) {
				continue
			}
			res.Comparisons++
			if x.Attrs[ja.Attr] != s.valsBuf[i] {
				match = false
				break
			}
		}
		if match {
			s.matchBuf = append(s.matchBuf, x)
		}
		return true
	})
	res.Matches = s.matchBuf
	res.Stats = st
	s.clock.ChargeCat(sim.CatSearch, sim.Units(st.Hashes)*s.costs.Hash+
		sim.Units(st.Buckets)*s.costs.Bucket+
		sim.Units(st.DirScans)*s.costs.DirScan+
		sim.Units(res.Comparisons)*s.costs.Compare)
	return res
}

// MemBytes returns the simulated resident size of the state: backend,
// expiry buckets, and assessor statistics.
func (s *STeM) MemBytes() int {
	m := s.store.MemBytes() + s.retained.MemBytes()
	if s.Assessor != nil {
		m += s.Assessor.MemBytes()
	}
	return m
}
