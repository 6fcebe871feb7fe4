// Package storage defines the contract a state's storage backend satisfies
// and provides the two simplest implementations: the no-index scan store
// and the adapter over the bit-address index. The multi-hash-index baseline
// lives in internal/hashindex.
package storage

import (
	"amri/internal/bitindex"
	"amri/internal/query"
	"amri/internal/tuple"
)

// Store is what a STeM operator needs from its state storage. Probe visits
// candidate tuples for the access pattern — the operator still applies the
// join predicates to each candidate. All operations report the work done in
// bitindex.Stats units so the simulation can charge for it.
type Store interface {
	Insert(t *tuple.Tuple) bitindex.Stats
	Delete(t *tuple.Tuple) (bitindex.Stats, bool)
	Probe(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) bitindex.Stats
	Len() int
	MemBytes() int
}

// ScanStore stores tuples in arrival order and answers every probe with a
// full scan: the degenerate baseline (and what a hash-index state falls
// back to when no index suits a request).
type ScanStore struct {
	tuples     []*tuple.Tuple
	pos        map[*tuple.Tuple]int
	tupleBytes int
}

// NewScanStore returns an empty scan store.
func NewScanStore() *ScanStore {
	return &ScanStore{pos: make(map[*tuple.Tuple]int)}
}

// Insert appends the tuple.
func (s *ScanStore) Insert(t *tuple.Tuple) bitindex.Stats {
	s.pos[t] = len(s.tuples)
	s.tuples = append(s.tuples, t)
	s.tupleBytes += t.MemBytes()
	return bitindex.Stats{}
}

// Delete removes the tuple by pointer identity via swap-remove.
func (s *ScanStore) Delete(t *tuple.Tuple) (bitindex.Stats, bool) {
	i, ok := s.pos[t]
	if !ok {
		return bitindex.Stats{}, false
	}
	last := len(s.tuples) - 1
	s.tuples[i] = s.tuples[last]
	s.pos[s.tuples[i]] = i
	s.tuples[last] = nil
	s.tuples = s.tuples[:last]
	delete(s.pos, t)
	s.tupleBytes -= t.MemBytes()
	return bitindex.Stats{}, true
}

// Probe scans everything regardless of the pattern.
func (s *ScanStore) Probe(_ query.Pattern, _ []tuple.Value, visit func(*tuple.Tuple) bool) bitindex.Stats {
	var st bitindex.Stats
	st.Buckets = 1
	for _, t := range s.tuples {
		st.Tuples++
		if !visit(t) {
			break
		}
	}
	return st
}

// Len returns the number of stored tuples.
func (s *ScanStore) Len() int { return len(s.tuples) }

// MemBytes returns the simulated resident size.
func (s *ScanStore) MemBytes() int {
	return 64 + 8*len(s.tuples) + 48*len(s.pos) + s.tupleBytes
}

// BitStore adapts a bit-address index to the Store interface. Unlike the
// other stores it is safe for concurrent use, at every stripe count of the
// index it wraps.
type BitStore struct {
	*bitindex.Index
}

// NewBitStore wraps the index.
func NewBitStore(ix *bitindex.Index) BitStore { return BitStore{Index: ix} }

// Probe delegates to the index's wildcard bucket search.
func (b BitStore) Probe(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) bitindex.Stats {
	return b.Search(p, vals, visit)
}

var (
	_ Store = (*ScanStore)(nil)
	_ Store = BitStore{}
)
