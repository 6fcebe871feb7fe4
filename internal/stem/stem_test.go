package stem

import (
	"testing"

	"amri/internal/assess"
	"amri/internal/bitindex"
	"amri/internal/query"
	"amri/internal/sim"
	"amri/internal/storage"
	"amri/internal/tuple"
)

// testStem builds a STeM for state 1 (StreamB) of the four-way query with a
// bit-index backend: 4 bits per join attribute.
func testStem(t *testing.T, a assess.Assessor) (*STeM, *query.Query, *sim.Clock) {
	t.Helper()
	q := query.FourWay(60)
	spec := q.States[1]
	attrMap := make([]int, spec.NumAttrs())
	for i, ja := range spec.JAS {
		attrMap[i] = ja.Attr
	}
	ix, err := bitindex.New(bitindex.Uniform(spec.NumAttrs(), 12), attrMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock(1000)
	s := New(spec, storage.NewBitStore(ix), a, 60, sim.DefaultCosts(), clock)
	return s, q, clock
}

func TestInsertChargesAndStores(t *testing.T) {
	s, _, clock := testStem(t, nil)
	before := clock.Spent()
	s.Insert(tuple.New(1, 0, 0, []tuple.Value{1, 2, 3}))
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if clock.Spent() <= before {
		t.Fatal("insert must charge the clock")
	}
}

func TestExpireHonorsWindow(t *testing.T) {
	s, _, _ := testStem(t, nil)
	for ts := int64(0); ts < 5; ts++ {
		s.Insert(tuple.New(1, uint64(ts), ts, []tuple.Value{1, 2, 3}))
	}
	// Window 60: at now=62, tuples with TS <= 2 expire.
	if dropped := s.Expire(62); dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Nothing more to expire at the same instant.
	if dropped := s.Expire(62); dropped != 0 {
		t.Fatalf("second expire dropped %d", dropped)
	}
}

func TestProbeMatchesExactly(t *testing.T) {
	s, q, _ := testStem(t, nil)
	spec := q.States[1]
	posA, _ := spec.PosForPartner(0)
	jaA := spec.JAS[posA]

	// Three B tuples; two share the A-join value 7.
	mk := func(seq uint64, vA tuple.Value) *tuple.Tuple {
		attrs := make([]tuple.Value, 3)
		attrs[jaA.Attr] = vA
		for i := range attrs {
			if i != jaA.Attr {
				attrs[i] = tuple.Value(100 + seq)
			}
		}
		return tuple.New(1, seq, 0, attrs)
	}
	s.Insert(mk(1, 7))
	s.Insert(mk(2, 7))
	s.Insert(mk(3, 9))

	// Probe with a lone A tuple whose A-B attribute is 7.
	aSpec := q.States[0]
	aPos, _ := aSpec.PosForPartner(1)
	aJA := aSpec.JAS[aPos]
	aAttrs := make([]tuple.Value, 3)
	aAttrs[aJA.Attr] = 7
	comp := tuple.NewComposite(4, tuple.New(0, 50, 0, aAttrs))

	res := s.Probe(comp)
	if res.Pattern.Count() != 1 || !res.Pattern.Has(posA) {
		t.Fatalf("pattern = %v, want single bit at %d", res.Pattern, posA)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(res.Matches))
	}
	if res.Candidates < 2 {
		t.Fatalf("candidates = %d", res.Candidates)
	}
	if res.Comparisons < res.Candidates {
		t.Fatal("each candidate needs at least one comparison")
	}
}

func TestProbeObservesAssessor(t *testing.T) {
	a := assess.NewSRIA()
	s, q, _ := testStem(t, a)
	s.Insert(tuple.New(1, 0, 0, []tuple.Value{1, 2, 3}))
	comp := tuple.NewComposite(4, tuple.New(0, 1, 0, []tuple.Value{5, 5, 5}))
	s.Probe(comp)
	if a.N() != 1 {
		t.Fatalf("assessor observed %d patterns, want 1", a.N())
	}
	_ = q
}

func TestProbeChargesClock(t *testing.T) {
	s, _, clock := testStem(t, nil)
	for i := 0; i < 50; i++ {
		s.Insert(tuple.New(1, uint64(i), 0, []tuple.Value{tuple.Value(i), 2, 3}))
	}
	before := clock.Spent()
	comp := tuple.NewComposite(4, tuple.New(0, 99, 0, []tuple.Value{1, 1, 1}))
	s.Probe(comp)
	if clock.Spent() <= before {
		t.Fatal("probe must charge the clock")
	}
}

func TestMemBytesIncludesAssessor(t *testing.T) {
	withA, _, _ := testStem(t, assess.NewSRIA())
	withoutA, _, _ := testStem(t, nil)
	withA.Assessor.Observe(query.PatternOf(0))
	if withA.MemBytes() <= withoutA.MemBytes() {
		t.Fatal("assessor memory must be accounted")
	}
}

func TestExpiryBucketsShrink(t *testing.T) {
	s, _, _ := testStem(t, nil)
	for ts := int64(0); ts < 3000; ts++ {
		s.Insert(tuple.New(1, uint64(ts), ts, []tuple.Value{1, 2, 3}))
	}
	// At now=2999 with window 60, tuples with TS > 2939 survive: 60 of them.
	s.Expire(2999)
	if s.Len() != 60 {
		t.Fatalf("Len = %d, want 60 (window worth)", s.Len())
	}
	if s.retained.NumBuckets() != 60 {
		t.Fatalf("expiry left %d timestamp buckets, want 60", s.retained.NumBuckets())
	}
}

// TestOutOfOrderExpiryIsExact: a late tuple (older TS arriving after newer
// ones) still expires at its own TS + window, and younger tuples survive.
func TestOutOfOrderExpiryIsExact(t *testing.T) {
	s, _, _ := testStem(t, nil)
	young := tuple.New(1, 1, 100, []tuple.Value{1, 2, 3})
	s.Insert(young)
	late := tuple.New(1, 2, 30, []tuple.Value{4, 5, 6}) // arrives after, 70 ticks older
	s.Insert(late)
	// Window 60: at now=95, TS <= 35 expires — exactly the late tuple.
	if dropped := s.Expire(95); dropped != 1 {
		t.Fatalf("dropped %d, want the late tuple only", dropped)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// The young tuple must still be stored and scannable.
	seen := 0
	s.Store().Probe(0, nil, func(x *tuple.Tuple) bool {
		if x == young {
			seen++
		}
		return true
	})
	if seen != 1 {
		t.Fatal("young tuple lost by out-of-order expiry")
	}
}

// TestShardedStoreMatchesFlat drives two identical STeMs — one over a
// one-stripe BitStore, one over eight stripes — through the same inserts,
// probes and expiries, asserting identical matches, candidates, index
// stats and clock charges: the stripe count never shows in the IC
// semantics or the cost accounting (bitindex.TestModelIndex owns the check
// that those Stats are the right ones).
func TestShardedStoreMatchesFlat(t *testing.T) {
	q := query.FourWay(60)
	spec := q.States[1]
	attrMap := make([]int, spec.NumAttrs())
	for i, ja := range spec.JAS {
		attrMap[i] = ja.Attr
	}
	flat, err := bitindex.New(bitindex.Uniform(spec.NumAttrs(), 12), attrMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := bitindex.NewSharded(bitindex.Uniform(spec.NumAttrs(), 12), attrMap, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	clockF := sim.NewClock(1 << 30)
	clockS := sim.NewClock(1 << 30)
	sf := New(spec, storage.NewBitStore(flat), nil, 60, sim.DefaultCosts(), clockF)
	ss := New(spec, storage.NewBitStore(sharded), nil, 60, sim.DefaultCosts(), clockS)

	mk := func(seq uint64, ts int64) *tuple.Tuple {
		return tuple.New(1, seq, ts, []tuple.Value{
			tuple.Value(seq % 7), tuple.Value(seq % 5), tuple.Value(seq % 3),
		})
	}
	for i := 0; i < 400; i++ {
		tp := mk(uint64(i), int64(i/4))
		sf.Insert(tp)
		ss.Insert(tp)
		if i%37 == 0 {
			sf.Expire(int64(i / 4))
			ss.Expire(int64(i / 4))
		}
	}
	if sf.Len() != ss.Len() {
		t.Fatalf("Len: flat %d, sharded %d", sf.Len(), ss.Len())
	}

	for probe := 0; probe < 50; probe++ {
		attrs := []tuple.Value{
			tuple.Value(probe % 7), tuple.Value(probe % 5), tuple.Value(probe % 3),
		}
		comp := tuple.NewComposite(4, tuple.New(0, uint64(1000+probe), 50, attrs))
		rf := sf.Probe(comp)
		rs := ss.Probe(comp)
		if len(rf.Matches) != len(rs.Matches) {
			t.Fatalf("probe %d: matches flat %d, sharded %d", probe, len(rf.Matches), len(rs.Matches))
		}
		if rf.Candidates != rs.Candidates || rf.Comparisons != rs.Comparisons {
			t.Fatalf("probe %d: candidates/comparisons flat %d/%d, sharded %d/%d",
				probe, rf.Candidates, rf.Comparisons, rs.Candidates, rs.Comparisons)
		}
		if rf.Stats != rs.Stats {
			t.Fatalf("probe %d: stats flat %+v, sharded %+v", probe, rf.Stats, rs.Stats)
		}
	}
	if clockF.Spent() != clockS.Spent() {
		t.Fatalf("clock charges diverge: flat %v, sharded %v", clockF.Spent(), clockS.Spent())
	}
}
