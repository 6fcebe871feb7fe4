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

// located is where the directories hold one tuple: the generation (0 = a
// draining migration's old shards, 1 = live), the shard, the local bucket
// id, the position inside the bucket and the bucket's length.
type located struct {
	epoch, shard int
	id           uint64
	pos, n       int
}

// locate maps every stored tuple to its slot by walking the directories
// directly, not through any probe path.
func locate(ix *Index) map[*tuple.Tuple]located {
	loc := make(map[*tuple.Tuple]located)
	walk := func(epoch, shard int, d directory) {
		d.forEach(func(id uint64, b []entry) bool {
			for pos, e := range b {
				loc[e.t] = located{epoch: epoch, shard: shard, id: id, pos: pos, n: len(b)}
			}
			return true
		})
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if m := ix.mig; m != nil {
		for k := range m.shards {
			walk(0, k, m.shards[k].dir)
		}
	}
	for k := 0; k < ix.live.n; k++ {
		walk(1, k, ix.shards[k].dir)
	}
	return loc
}

// TestSearchContract pins what the visit-based Search promises its callers,
// for the index New builds and for 8 stripes, dense and sparse, idle and
// mid-drain:
//
//   - candidates arrive a draining migration's old shards first, then the
//     live ones, shard by shard, each addressed bucket whole and in its
//     stored order;
//   - once visit returns false it is not called again;
//   - Stats equal SearchMatch's for the same probe, and cover the whole
//     addressed span whether or not the visitor stopped early.
func TestSearchContract(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int // 0: New
		denseLimit int
	}{
		{"new/dense", 0, DefaultDenseLimit},
		{"new/sparse", 0, 0},
		{"8/dense", 8, DefaultDenseLimit},
		{"8/sparse", 8, 0},
	} {
		for _, draining := range []bool{false, true} {
			name := tc.name + "/idle"
			if draining {
				name = tc.name + "/draining"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(11, uint64(tc.shards)))
				attrMap := []int{0, 1, 2}
				cfg := NewConfig(3, 3, 3)
				ix := mustNew(t, cfg, attrMap, nil, WithDenseLimit(tc.denseLimit))
				if tc.shards > 0 {
					ix = mustNewSharded(t, cfg, attrMap, nil, tc.shards, WithDenseLimit(tc.denseLimit))
				}
				seq := uint64(0)
				insert := func(n int) {
					for i := 0; i < n; i++ {
						seq++
						ix.Insert(tuple.New(0, seq, 0, []tuple.Value{
							tuple.Value(rng.Uint64N(8)), tuple.Value(rng.Uint64N(8)), tuple.Value(rng.Uint64N(8))}))
					}
				}
				insert(300)
				if draining {
					if err := ix.StartMigration(NewConfig(2, 4, 3)); err != nil {
						t.Fatal(err)
					}
					ix.MigrateStep(40)
					insert(50)
					if !ix.Migrating() {
						t.Fatal("migration drained before the probes; the case tests nothing")
					}
				}
				loc := locate(ix)
				dense := tc.denseLimit > 0
				var ss SearchScratch
				for pat := query.Pattern(0); pat < 8; pat++ {
					vals := []tuple.Value{tuple.Value(rng.Uint64N(8)), tuple.Value(rng.Uint64N(8)), tuple.Value(rng.Uint64N(8))}
					var got []*tuple.Tuple
					full := ix.Search(pat, vals, func(x *tuple.Tuple) bool {
						got = append(got, x)
						return true
					})
					checkVisitOrder(t, pat, got, loc)

					st, out := ix.SearchMatch(pat, vals, &Matcher{}, &ss, nil)
					if st != full {
						t.Fatalf("pattern %v: Search charges %+v, SearchMatch %+v", pat, full, st)
					}
					if len(out) != len(got) {
						t.Fatalf("pattern %v: Search visited %d candidates, SearchMatch collected %d", pat, len(got), len(out))
					}
					// A dense directory is enumerated, so two probes meet its
					// buckets in one order; a masked scan of a sparse one
					// follows the map's iteration order.
					for i := range out {
						if dense && out[i] != got[i] {
							t.Fatalf("pattern %v: candidate %d is seq %d by Search, seq %d by SearchMatch", pat, i, got[i].Seq, out[i].Seq)
						}
					}

					for _, stopAt := range []int{1, len(got) / 2, len(got)} {
						if stopAt == 0 || stopAt > len(got) {
							continue
						}
						calls := 0
						stopped := ix.Search(pat, vals, func(x *tuple.Tuple) bool {
							if dense && x != got[calls] {
								t.Errorf("pattern %v: stopping visitor met seq %d at position %d, want seq %d", pat, x.Seq, calls, got[calls].Seq)
							}
							calls++
							return calls < stopAt
						})
						if calls != stopAt {
							t.Fatalf("pattern %v: visit called %d times after returning false at call %d", pat, calls, stopAt)
						}
						if stopped != full {
							t.Fatalf("pattern %v: Search stopped at candidate %d charges %+v, the whole span costs %+v", pat, stopAt, stopped, full)
						}
					}
				}
			})
		}
	}
}

// checkVisitOrder asserts the order clause of TestSearchContract against the
// slots locate found: generations and shards never go backwards, and every
// visited bucket is delivered whole, contiguously, in stored order.
func checkVisitOrder(t *testing.T, pat query.Pattern, got []*tuple.Tuple, loc map[*tuple.Tuple]located) {
	t.Helper()
	type bucketKey struct {
		epoch, shard int
		id           uint64
	}
	done := make(map[bucketKey]bool)
	var prev located
	for i, x := range got {
		at, ok := loc[x]
		if !ok {
			t.Fatalf("pattern %v: visited seq %d, which no directory holds", pat, x.Seq)
		}
		key := bucketKey{at.epoch, at.shard, at.id}
		switch {
		case i > 0 && key == (bucketKey{prev.epoch, prev.shard, prev.id}):
			if at.pos != prev.pos+1 {
				t.Fatalf("pattern %v: bucket %+v visited out of stored order (%d after %d)", pat, key, at.pos, prev.pos)
			}
		case done[key]:
			t.Fatalf("pattern %v: bucket %+v visited in two pieces", pat, key)
		case at.pos != 0:
			t.Fatalf("pattern %v: bucket %+v entered at position %d", pat, key, at.pos)
		case i > 0 && prev.pos != prev.n-1:
			t.Fatalf("pattern %v: bucket left at position %d of %d", pat, prev.pos, prev.n)
		case i > 0 && (prev.epoch > at.epoch || (prev.epoch == at.epoch && prev.shard > at.shard)):
			t.Fatalf("pattern %v: candidate %d (generation %d, shard %d) follows generation %d, shard %d",
				pat, i, at.epoch, at.shard, prev.epoch, prev.shard)
		}
		done[key] = true
		prev = at
	}
	if len(got) > 0 && prev.pos != prev.n-1 {
		t.Fatalf("pattern %v: last bucket left at position %d of %d", pat, prev.pos, prev.n)
	}
}
