package bitindex

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"amri/internal/query"
	"amri/internal/tuple"
)

func mustNewSharded(t *testing.T, cfg Config, attrMap []int, h Hasher, shards int, opts ...Option) *Index {
	t.Helper()
	ix, err := NewSharded(cfg, attrMap, h, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewShardedValidates(t *testing.T) {
	cfg := NewConfig(4, 4)
	for _, bad := range []int{0, -1, 3, 5, 6, 512} {
		if _, err := NewSharded(cfg, []int{0, 1}, nil, bad); err == nil {
			t.Errorf("shard count %d accepted", bad)
		}
	}
	for _, good := range []int{1, 2, 4, 8, 256} {
		if _, err := NewSharded(cfg, []int{0, 1}, nil, good); err != nil {
			t.Errorf("shard count %d rejected: %v", good, err)
		}
	}
	if _, err := NewSharded(NewConfig(40, 40), []int{0, 1}, nil, 4); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestShardedPaperExample reruns the §III worked example on a sharded
// index: identical bucket accounting (4 buckets for the wildcard span, 2
// hashes) regardless of how many shards the directory is striped over.
func TestShardedPaperExample(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		cfg := NewConfig(5, 2, 3)
		ix := mustNewSharded(t, cfg, []int{0, 1, 2}, IdentityHasher, shards)
		tp := tuple.New(0, 1, 0, []tuple.Value{0b00111, 0b11, 0b010})
		ix.Insert(tp)
		var visited []*tuple.Tuple
		st := ix.Search(query.PatternOf(0, 2), []tuple.Value{0b00111, 0, 0b010}, func(x *tuple.Tuple) bool {
			visited = append(visited, x)
			return true
		})
		if st.Buckets != 4 {
			t.Errorf("shards=%d: buckets = %d, want 4", shards, st.Buckets)
		}
		if st.Hashes != 2 {
			t.Errorf("shards=%d: hashes = %d, want 2", shards, st.Hashes)
		}
		if len(visited) != 1 || visited[0] != tp {
			t.Errorf("shards=%d: visited = %v", shards, visited)
		}
	}
}

func collectSeqs(st *Stats, ix *Index, p query.Pattern, vals []tuple.Value) []uint64 {
	var seqs []uint64
	got := ix.Search(p, vals, func(x *tuple.Tuple) bool {
		seqs = append(seqs, x.Seq)
		return true
	})
	if st != nil {
		*st = got
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func sameSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesPlain drives indexes at several stripe counts — the
// one-stripe index New builds among them — through the same random
// operation sequence: inserts, deletes, searches, a mid-stream incremental
// migration with partial steps, an abort, and a full Migrate. Every probe
// must return identical match sets and identical Stats at every stripe
// count, and those Stats must be what modelStats predicts from the plain
// slice of live tuples. Dense directories make the bucket accounting
// exactly comparable: every probe enumerates the same wildcard span however
// it is striped.
func TestShardedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	cfgA := NewConfig(4, 3, 3) // 10 bits
	cfgB := NewConfig(2, 5, 0) // 7 bits, attr 2 unindexed
	attrMap := []int{0, 1, 2}

	plain := mustNew(t, cfgA, attrMap, nil)
	striped := map[int]*Index{}
	for _, s := range []int{4, 16} {
		striped[s] = mustNewSharded(t, cfgA, attrMap, nil, s)
	}
	all := func(op func(ix *Index)) {
		op(plain)
		for _, sx := range striped {
			op(sx)
		}
	}

	var live []*tuple.Tuple
	patterns := []query.Pattern{
		query.PatternOf(0), query.PatternOf(1), query.PatternOf(2),
		query.PatternOf(0, 1), query.PatternOf(0, 2), query.PatternOf(1, 2),
		query.FullPattern(3),
	}
	randomVals := func() []tuple.Value {
		return []tuple.Value{
			tuple.Value(rng.Uint64N(32)), tuple.Value(rng.Uint64N(32)), tuple.Value(rng.Uint64N(32)),
		}
	}

	// check compares raw candidate sets and Stats: across stripe counts, and
	// against the model under the epochs the probes consult (the live
	// configuration, preceded by the old one while a migration is open).
	check := func(step string, epochs ...Config) {
		t.Helper()
		vals := randomVals()
		for _, p := range patterns {
			var pst Stats
			want := collectSeqs(&pst, plain, p, vals)
			model := modelStats(DefaultHasher, attrMap, epochs, p, vals, live)
			if diff := diffStats(pst, model, true, len(epochs) > 1); diff != "" {
				t.Fatalf("%s: pattern=%v: %s", step, p, diff)
			}
			for s, sx := range striped {
				var sst Stats
				got := collectSeqs(&sst, sx, p, vals)
				if !sameSeqs(want, got) {
					t.Fatalf("%s: shards=%d pattern=%v: matches %v, want %v", step, s, p, got, want)
				}
				if sst != pst {
					t.Fatalf("%s: shards=%d pattern=%v: stats %+v, want %+v", step, s, p, sst, pst)
				}
			}
		}
	}

	mutate := func(n int) {
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Uint64N(4) == 0 {
				j := int(rng.Uint64N(uint64(len(live))))
				victim := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				all(func(ix *Index) {
					if _, ok := ix.Delete(victim); !ok {
						t.Fatalf("delete of live tuple failed")
					}
				})
				continue
			}
			tp := tuple.New(0, rng.Uint64(), 0, randomVals())
			live = append(live, tp)
			all(func(ix *Index) { ix.Insert(tp) })
		}
	}

	// checkVerified compares predicate-verified matches only: mid-drain the
	// stripe counts relocate different tuples first, so the raw candidate
	// supersets may differ while the true matches must not — and must be
	// exactly the live tuples that satisfy the predicate.
	checkVerified := func(step string) {
		t.Helper()
		vals := randomVals()
		verify := func(p query.Pattern, x *tuple.Tuple) bool {
			for i := 0; i < 3; i++ {
				if p.Has(i) && x.Attrs[i] != vals[i] {
					return false
				}
			}
			return true
		}
		for _, p := range patterns {
			var want []uint64
			for _, x := range live {
				if verify(p, x) {
					want = append(want, x.Seq)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			all(func(ix *Index) {
				var got []uint64
				ix.Search(p, vals, func(x *tuple.Tuple) bool {
					if verify(p, x) {
						got = append(got, x.Seq)
					}
					return true
				})
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if !sameSeqs(want, got) {
					t.Fatalf("%s: %v pattern=%v: verified matches %v, want %v", step, ix, p, got, want)
				}
			})
		}
	}

	mutate(300)
	check("warm", cfgA)

	// Incremental migration to cfgB, probed while partially drained.
	all(func(ix *Index) {
		if err := ix.StartMigration(cfgB); err != nil {
			t.Fatal(err)
		}
	})
	// Nothing has moved yet: every pre-migration tuple still sits in the
	// old directories, so raw candidates agree across stripe counts.
	check("migration started", cfgA, cfgB)
	mutate(60)
	check("mid-migration mutations", cfgA, cfgB)
	all(func(ix *Index) { ix.MigrateStep(100) })
	checkVerified("partial drain")

	// Abort: every index must land back on cfgA with identical contents.
	all(func(ix *Index) {
		if _, ok := ix.AbortMigration(); !ok {
			t.Fatalf("%v: abort failed", ix)
		}
		if !ix.Config().Equal(cfgA) {
			t.Fatalf("post-abort config = %v, want %v", ix.Config(), cfgA)
		}
	})
	check("aborted", cfgA)

	// Full migrate to cfgB and drain-to-completion equivalence.
	all(func(ix *Index) {
		if _, err := ix.Migrate(cfgB); err != nil {
			t.Fatal(err)
		}
		if ix.Migrating() {
			t.Fatalf("%v still migrating after Migrate", ix)
		}
		if ix.Len() != len(live) {
			t.Fatalf("%v Len = %d, want %d", ix, ix.Len(), len(live))
		}
	})
	check("full migrate", cfgB)
	mutate(100)
	check("post-migrate mutations", cfgB)
}

// TestShardedIncrementalDrain pins the shard-local drain mechanics:
// bounded steps report not-done until the old shards empty, Len is
// preserved throughout, and mid-drain searches see every tuple exactly
// once.
func TestShardedIncrementalDrain(t *testing.T) {
	cfg := NewConfig(5, 5)
	ix := mustNewSharded(t, cfg, []int{0, 1}, nil, 8)
	const n = 200
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		ix.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{
			tuple.Value(i % 13), tuple.Value(i % 7),
		}))
	}
	if err := ix.StartMigration(NewConfig(2, 8)); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		st, done := ix.MigrateStep(16)
		steps++
		if st.Tuples > 16 {
			t.Fatalf("step moved %d tuples, budget 16", st.Tuples)
		}
		if ix.Len() != n {
			t.Fatalf("Len = %d mid-drain, want %d", ix.Len(), n)
		}
		// A full wildcard scan must see each tuple exactly once, no matter
		// how the population is split across old and new shards.
		count := 0
		for k := range seen {
			delete(seen, k)
		}
		ix.Search(query.Pattern(0), nil, func(x *tuple.Tuple) bool {
			if seen[x.Seq] {
				t.Fatalf("tuple %d visited twice mid-drain", x.Seq)
			}
			seen[x.Seq] = true
			count++
			return true
		})
		if count != n {
			t.Fatalf("mid-drain scan saw %d tuples, want %d", count, n)
		}
		if done {
			break
		}
	}
	if got := (n + 15) / 16; steps < got {
		t.Fatalf("drained in %d steps, expected at least %d", steps, got)
	}
	if ix.Migrating() {
		t.Fatal("still migrating after done")
	}
}

// TestShardedConcurrentOps exercises concurrent inserts, searches, deletes
// and an interleaved migration lifecycle; run under -race this is the
// shard-safety gate. Every writer owns a disjoint key range so the final
// count is deterministic.
func TestShardedConcurrentOps(t *testing.T) {
	cfg := NewConfig(6, 6)
	ix := mustNewSharded(t, cfg, []int{0, 1}, nil, 8)
	const (
		writers = 4
		perW    = 150
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tuples := make([]*tuple.Tuple, 0, perW)
			for i := 0; i < perW; i++ {
				tp := tuple.New(w, uint64(w*perW+i), 0, []tuple.Value{
					tuple.Value(i % 9), tuple.Value(w),
				})
				tuples = append(tuples, tp)
				ix.Insert(tp)
				if i%3 == 0 {
					ix.Search(query.PatternOf(1), []tuple.Value{0, tuple.Value(w)}, func(x *tuple.Tuple) bool { return true })
				}
			}
			for _, tp := range tuples[:perW/2] {
				if _, ok := ix.Delete(tp); !ok {
					t.Errorf("concurrent delete lost tuple %d", tp.Seq)
				}
			}
		}(w)
	}
	// Migration churn interleaved with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfgs := []Config{NewConfig(3, 9), NewConfig(8, 4), NewConfig(6, 6)}
		for i, c := range cfgs {
			if err := ix.StartMigration(c); err != nil {
				continue
			}
			for j := 0; j < 4; j++ {
				if _, done := ix.MigrateStep(32); done {
					break
				}
			}
			if i%2 == 0 {
				ix.AbortMigration()
			}
		}
	}()
	wg.Wait()
	for {
		if _, done := ix.MigrateStep(1 << 16); done {
			break
		}
	}
	want := writers * perW / 2
	if ix.Len() != want {
		t.Fatalf("Len = %d after concurrent run, want %d", ix.Len(), want)
	}
	count := 0
	ix.Search(query.Pattern(0), nil, func(x *tuple.Tuple) bool { count++; return true })
	if count != want {
		t.Fatalf("full scan saw %d, want %d", count, want)
	}
}

// TestShardedSparseShards forces the sparse directory path (wide local id
// space) and checks the per-shard enumerate-versus-masked-scan decision
// still yields exact results.
func TestShardedSparseShards(t *testing.T) {
	cfg := NewConfig(20, 20) // 40 bits: sparse shards at any stripe count
	ix := mustNewSharded(t, cfg, []int{0, 1}, nil, 4)
	var want []uint64
	for i := 0; i < 500; i++ {
		tp := tuple.New(0, uint64(i), 0, []tuple.Value{
			tuple.Value(i % 11), tuple.Value(i),
		})
		ix.Insert(tp)
		if i%11 == 4 {
			want = append(want, uint64(i))
		}
	}
	var got []uint64
	st := ix.Search(query.PatternOf(0), []tuple.Value{4, 0}, func(x *tuple.Tuple) bool {
		if x.Attrs[0] == 4 {
			got = append(got, x.Seq)
		}
		return true
	})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !sameSeqs(want, got) {
		t.Fatalf("sparse search matches = %v, want %v", got, want)
	}
	if st.DirScans == 0 {
		t.Fatal("expected masked directory scans on a 20-bit wildcard span")
	}
	if st.Hashes != 1 {
		t.Fatalf("hashes = %d, want 1", st.Hashes)
	}
}

// TestShardedEarlyStop verifies visitor early-exit crosses shard
// boundaries: once the visitor returns false no further shard is probed.
func TestShardedEarlyStop(t *testing.T) {
	ix := mustNewSharded(t, NewConfig(4), []int{0}, nil, 8)
	for i := 0; i < 64; i++ {
		ix.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{tuple.Value(i % 16)}))
	}
	n := 0
	ix.Search(query.Pattern(0), nil, func(x *tuple.Tuple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}
