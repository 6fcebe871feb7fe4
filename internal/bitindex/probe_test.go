package bitindex

import (
	"math/rand/v2"
	"sort"
	"testing"

	"amri/internal/query"
	"amri/internal/tuple"
)

// matcherSeqs runs SearchMatch and returns the matched Seqs sorted, plus
// the stats.
func matcherSeqs(t *testing.T, ix *Index, p query.Pattern, vals []tuple.Value, m *Matcher, ss *SearchScratch) ([]uint64, Stats) {
	t.Helper()
	st, out := ix.SearchMatch(p, vals, m, ss, nil)
	seqs := make([]uint64, 0, len(out))
	for _, x := range out {
		seqs = append(seqs, x.Seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, st
}

// visitSeqs runs the visit-based Search with the same filter applied in the
// callback — the reference SearchMatch must reproduce exactly.
func visitSeqs(ix *Index, p query.Pattern, vals []tuple.Value, m *Matcher) ([]uint64, Stats) {
	var seqs []uint64
	st := ix.Search(p, vals, func(x *tuple.Tuple) bool {
		if matchTuple(m, x) {
			seqs = append(seqs, x.Seq)
		}
		return true
	})
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, st
}

// TestSearchMatchEquivalence drives the index New builds and indexes at
// several stripe counts through random inserts/deletes and asserts that
// SearchMatch returns exactly the tuples the visit-based Search + filter
// accepts, with identical Stats, across patterns, matcher settings, a
// mid-stream incremental migration, and both dense and sparse directories.
//
// The matcher list pins the tag pre-filter's contract (see Matcher): the
// Matcher must see every bucket candidate its own conditions do not
// exclude. A pre-filter derived from the access pattern instead fails
// matcher 0 on every constrained pattern; matchers 4 and 5 carry an
// equality no tag can express.
func TestSearchMatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		denseLimit int
	}{
		{"dense", DefaultDenseLimit},
		{"sparse", 0}, // force sparse directories everywhere
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(3, uint64(tc.denseLimit)))
			cfg := NewConfig(4, 3, 3)
			attrMap := []int{0, 1, 2}
			plain := mustNew(t, cfg, attrMap, nil, WithDenseLimit(tc.denseLimit))
			shardeds := map[int]*Index{}
			for _, s := range []int{1, 4, 16} {
				shardeds[s] = mustNewSharded(t, cfg, attrMap, nil, s, WithDenseLimit(tc.denseLimit))
			}
			patterns := []query.Pattern{
				query.PatternOf(0), query.PatternOf(2), query.PatternOf(0, 1),
				query.PatternOf(1, 2), query.FullPattern(3),
			}
			var ss SearchScratch
			arrival := uint64(1)
			insert := func(n int) {
				for i := 0; i < n; i++ {
					// Attribute 3 is absent from attrMap: stored, never indexed.
					tp := tuple.New(0, rng.Uint64(), int64(rng.Uint64N(64)), []tuple.Value{
						tuple.Value(rng.Uint64N(16)), tuple.Value(rng.Uint64N(16)), tuple.Value(rng.Uint64N(16)),
						tuple.Value(rng.Uint64N(4)),
					})
					tp.Arrival = arrival
					arrival++
					plain.Insert(tp)
					for _, sx := range shardeds {
						sx.Insert(tp)
					}
				}
			}
			check := func(step string) {
				t.Helper()
				vals := []tuple.Value{
					tuple.Value(rng.Uint64N(16)), tuple.Value(rng.Uint64N(16)), tuple.Value(rng.Uint64N(16)),
				}
				matchers := []*Matcher{
					// 0: NEq == 0 and Driver == 0, no filter at all
					{},
					// 1: NEq == 0, driver only
					{Driver: arrival / 2, MinTS: 20},
					// 2: Driver == 0, one indexed equality
					{NEq: 1, EqAttr: [query.MaxAttrs]int{1}, EqVal: [query.MaxAttrs]tuple.Value{vals[1]}},
					// 3: driver and two indexed equalities
					{Driver: arrival, MinTS: 5, NEq: 2,
						EqAttr: [query.MaxAttrs]int{0, 2},
						EqVal:  [query.MaxAttrs]tuple.Value{vals[0], vals[2]}},
					// 4: the only equality is on the non-indexed attribute
					{NEq: 1, EqAttr: [query.MaxAttrs]int{3}, EqVal: [query.MaxAttrs]tuple.Value{vals[1] % 4}},
					// 5: a non-indexed equality beside an indexed one
					{Driver: arrival, NEq: 2,
						EqAttr: [query.MaxAttrs]int{3, 1},
						EqVal:  [query.MaxAttrs]tuple.Value{vals[2] % 4, vals[1]}},
				}
				for _, p := range patterns {
					for mi, m := range matchers {
						wantSeqs, wantSt := visitSeqs(plain, p, vals, m)
						gotSeqs, gotSt := matcherSeqs(t, plain, p, vals, m, &ss)
						if !sameSeqs(wantSeqs, gotSeqs) {
							t.Fatalf("%s: flat matcher=%d pattern=%v: %v, want %v", step, mi, p, gotSeqs, wantSeqs)
						}
						if gotSt != wantSt {
							t.Fatalf("%s: flat matcher=%d pattern=%v: stats %+v, want %+v", step, mi, p, gotSt, wantSt)
						}
						for s, sx := range shardeds {
							refSeqs, refSt := visitSeqs(sx, p, vals, m)
							shSeqs, shSt := matcherSeqs(t, sx, p, vals, m, &ss)
							if !sameSeqs(refSeqs, shSeqs) {
								t.Fatalf("%s: shards=%d matcher=%d pattern=%v: %v, want %v", step, s, mi, p, shSeqs, refSeqs)
							}
							if shSt != refSt {
								t.Fatalf("%s: shards=%d matcher=%d pattern=%v: stats %+v, want %+v", step, s, mi, p, shSt, refSt)
							}
							// The sharded match set must also agree with the
							// one-stripe index (same stored tuples).
							if !sameSeqs(wantSeqs, shSeqs) {
								t.Fatalf("%s: shards=%d matcher=%d pattern=%v: %v, want flat %v", step, s, mi, p, shSeqs, wantSeqs)
							}
						}
					}
				}
			}

			insert(300)
			check("loaded")

			// Mid-incremental-migration: start a migration on every sharded
			// index, advance it partially, and require equivalence while both
			// directories hold tuples.
			next := NewConfig(2, 2, 6)
			for s, sx := range shardeds {
				if err := sx.StartMigration(next); err != nil {
					t.Fatalf("shards=%d: StartMigration: %v", s, err)
				}
				sx.MigrateStep(40)
				if !sx.Migrating() {
					t.Fatalf("shards=%d: migration finished too early for the test", s)
				}
			}
			if _, err := plain.Migrate(next); err != nil {
				t.Fatal(err)
			}
			// Mid-drain, candidate supersets legitimately differ between a
			// fully-migrated index and a partially drained one
			// (the two geometries admit different hash false positives), so
			// only the SearchMatch-vs-Search equality within each index is
			// asserted — match sets and Stats both exact.
			vals := []tuple.Value{3, 5, 7}
			m := &Matcher{Driver: arrival, MinTS: 10}
			for _, p := range patterns {
				for s, sx := range shardeds {
					refSeqs, refSt := visitSeqs(sx, p, vals, m)
					shSeqs, shSt := matcherSeqs(t, sx, p, vals, m, &ss)
					if !sameSeqs(refSeqs, shSeqs) {
						t.Fatalf("mid-migration: shards=%d pattern=%v: %v, want %v", s, p, shSeqs, refSeqs)
					}
					if shSt != refSt {
						t.Fatalf("mid-migration: shards=%d pattern=%v: stats %+v, want %+v", s, p, shSt, refSt)
					}
				}
			}
			for _, sx := range shardeds {
				for {
					if _, done := sx.MigrateStep(64); done {
						break
					}
				}
			}
			insert(100)
			check("post-migration")
		})
	}
}

// TestDenseDirOccupancyBitmap pins the occupancy bitmap against the slice
// state through put/remove cycles.
func TestDenseDirOccupancyBitmap(t *testing.T) {
	d := newDirectoryBits(8, DefaultDenseLimit).(*denseDir)
	tps := make([]*tuple.Tuple, 6)
	for i := range tps {
		tps[i] = tuple.New(0, uint64(i), 0, []tuple.Value{1})
	}
	d.put(5, entry{t: tps[0]})
	d.put(5, entry{t: tps[1]})
	d.put(200, entry{t: tps[2]})
	for id := uint64(0); id < 256; id++ {
		want := len(d.buckets[id]) > 0
		if d.has(id) != want {
			t.Fatalf("after puts: has(%d) = %v, want %v", id, d.has(id), want)
		}
	}
	d.remove(5, tps[0])
	if !d.has(5) {
		t.Fatal("bucket 5 still holds a tuple, bitmap cleared early")
	}
	d.remove(5, tps[1])
	if d.has(5) {
		t.Fatal("bucket 5 empty, bitmap still set")
	}
	if !d.has(200) {
		t.Fatal("bucket 200 lost its bit")
	}
	d.remove(200, tps[2])
	for id := uint64(0); id < 256; id++ {
		if d.has(id) {
			t.Fatalf("drained directory: has(%d) = true", id)
		}
	}
}
