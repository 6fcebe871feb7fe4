package bitindex

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"amri/internal/query"
	"amri/internal/tuple"
)

func populated(t *testing.T, n int) (*Index, []*tuple.Tuple) {
	t.Helper()
	ix, err := New(NewConfig(6, 0, 0), []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	var tuples []*tuple.Tuple
	for i := 0; i < n; i++ {
		tp := tuple.New(0, uint64(i), 0, []tuple.Value{
			tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64))})
		tuples = append(tuples, tp)
		ix.Insert(tp)
	}
	return ix, tuples
}

func TestStartMigrationValidation(t *testing.T) {
	ix, _ := populated(t, 10)
	if err := ix.StartMigration(NewConfig(6, 0, 0)); err == nil {
		t.Error("identical config should be rejected")
	}
	if err := ix.StartMigration(NewConfig(4)); err == nil {
		t.Error("wrong arity should be rejected")
	}
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if !ix.Migrating() {
		t.Fatal("migration should be in progress")
	}
	if err := ix.StartMigration(NewConfig(1, 1, 1)); err == nil {
		t.Error("second concurrent migration should be rejected")
	}
}

func TestMigrateStepDrains(t *testing.T) {
	ix, _ := populated(t, 100)
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	moved := 0
	steps := 0
	for {
		st, done := ix.MigrateStep(7)
		moved += st.Tuples
		steps++
		if done {
			break
		}
		if st.Tuples != 7 {
			t.Fatalf("step moved %d, want 7", st.Tuples)
		}
	}
	if moved != 100 {
		t.Fatalf("moved %d total, want 100", moved)
	}
	if ix.Migrating() {
		t.Fatal("migration should be complete")
	}
	if steps < 100/7 {
		t.Fatalf("only %d steps", steps)
	}
	// No-op after completion.
	if st, done := ix.MigrateStep(10); !done || st.Tuples != 0 {
		t.Fatal("MigrateStep after completion must be a no-op")
	}
}

// TestSearchDuringMigration: every stored tuple stays findable at every
// point of the migration, and Len never changes.
func TestSearchDuringMigration(t *testing.T) {
	ix, tuples := populated(t, 200)
	if err := ix.StartMigration(NewConfig(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	checkAll := func(stage string) {
		if ix.Len() != len(tuples) {
			t.Fatalf("%s: Len = %d, want %d", stage, ix.Len(), len(tuples))
		}
		for _, want := range tuples {
			found := false
			ix.Search(query.FullPattern(3), want.Attrs, func(x *tuple.Tuple) bool {
				if x == want {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("%s: tuple %v unfindable", stage, want)
			}
		}
	}
	checkAll("just started")
	ix.MigrateStep(50)
	checkAll("quarter migrated")
	ix.MigrateStep(100)
	checkAll("three quarters migrated")
	ix.MigrateStep(1000)
	checkAll("complete")
}

func TestInsertDuringMigrationGoesToNewConfig(t *testing.T) {
	ix, _ := populated(t, 50)
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	fresh := tuple.New(0, 999, 0, []tuple.Value{1, 2, 3})
	ix.Insert(fresh)
	// Complete the migration; the fresh tuple must not be moved again.
	st := Stats{}
	for {
		s, done := ix.MigrateStep(1 << 10)
		st.Add(s)
		if done {
			break
		}
	}
	if st.Tuples != 50 {
		t.Fatalf("migration moved %d tuples, want only the 50 old ones", st.Tuples)
	}
	found := false
	ix.Search(query.FullPattern(3), fresh.Attrs, func(x *tuple.Tuple) bool {
		found = found || x == fresh
		return true
	})
	if !found {
		t.Fatal("fresh tuple lost")
	}
}

func TestDeleteDuringMigration(t *testing.T) {
	ix, tuples := populated(t, 80)
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	ix.MigrateStep(40)
	// Delete a mix of moved and unmoved tuples.
	for i := 0; i < 20; i++ {
		if _, ok := ix.Delete(tuples[i*4]); !ok {
			t.Fatalf("delete of tuple %d failed mid-migration", i*4)
		}
	}
	if ix.Len() != 60 {
		t.Fatalf("Len = %d, want 60", ix.Len())
	}
	ix.MigrateStep(1 << 10)
	if ix.Len() != 60 {
		t.Fatalf("Len after drain = %d, want 60", ix.Len())
	}
}

func TestStopTheWorldMigrateFinishesIncremental(t *testing.T) {
	ix, tuples := populated(t, 60)
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	ix.MigrateStep(10)
	// A full Migrate while incremental is in flight must drain everything
	// and land every tuple in the final configuration.
	if _, err := ix.Migrate(NewConfig(3, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if ix.Migrating() {
		t.Fatal("no migration should remain")
	}
	if !ix.Config().Equal(NewConfig(3, 3, 0)) {
		t.Fatalf("config = %v", ix.Config())
	}
	for _, want := range tuples {
		found := false
		ix.Search(query.FullPattern(3), want.Attrs, func(x *tuple.Tuple) bool {
			if x == want {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("tuple %v lost", want)
		}
	}
}

func TestMemBytesIncludesOldDirectory(t *testing.T) {
	ix, _ := populated(t, 100)
	before := ix.MemBytes()
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	during := ix.MemBytes()
	if during <= before {
		t.Fatalf("migration should cost memory: %d vs %d", during, before)
	}
	ix.MigrateStep(1 << 10)
	after := ix.MemBytes()
	if after >= during {
		t.Fatalf("completing the migration should release the old directory: %d vs %d", after, during)
	}
}

// Property: at any migration progress, a search by any pattern over a
// random tuple's own attributes finds it.
func TestMigrationFindabilityProperty(t *testing.T) {
	f := func(seed uint64, stepPct uint8, pat uint8) bool {
		ix, err := New(NewConfig(5, 1, 0), []int{0, 1, 2}, nil)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, seed))
		var tuples []*tuple.Tuple
		for i := 0; i < 64; i++ {
			tp := tuple.New(0, uint64(i), 0, []tuple.Value{
				tuple.Value(rng.Uint64N(32)), tuple.Value(rng.Uint64N(32)), tuple.Value(rng.Uint64N(32))})
			tuples = append(tuples, tp)
			ix.Insert(tp)
		}
		if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
			return false
		}
		ix.MigrateStep(int(stepPct) % 65)
		target := tuples[seed%uint64(len(tuples))]
		p := query.Pattern(pat) & query.FullPattern(3)
		found := false
		ix.Search(p, target.Attrs, func(x *tuple.Tuple) bool {
			if x == target {
				found = true
				return false
			}
			return true
		})
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortMigrationRestoresOldDirectory: a fault mid-MigrateStep must
// leave the old directory authoritative — same configuration, same Len,
// every tuple findable, as if the migration never started.
func TestAbortMigrationRestoresOldDirectory(t *testing.T) {
	ix, tuples := populated(t, 120)
	oldCfg := ix.Config()
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	// Partially migrate and insert fresh tuples under the new config —
	// the abort must fold both back into the old directory.
	ix.MigrateStep(40)
	fresh := tuple.New(0, 5000, 0, []tuple.Value{7, 8, 9})
	ix.Insert(fresh)
	tuples = append(tuples, fresh)

	st, ok := ix.AbortMigration()
	if !ok {
		t.Fatal("abort of an in-flight migration reported nothing to abort")
	}
	if st.Tuples != 41 {
		t.Fatalf("abort relocated %d tuples, want the 40 moved + 1 fresh", st.Tuples)
	}
	if ix.Migrating() {
		t.Fatal("no migration should remain after abort")
	}
	if !ix.Config().Equal(oldCfg) {
		t.Fatalf("config = %v, want the pre-migration %v", ix.Config(), oldCfg)
	}
	if ix.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(tuples))
	}
	for _, want := range tuples {
		found := false
		ix.Search(query.FullPattern(3), want.Attrs, func(x *tuple.Tuple) bool {
			if x == want {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("tuple %v unfindable after abort", want)
		}
	}
	// The restored index must keep working: delete and re-insert.
	if _, ok := ix.Delete(tuples[3]); !ok {
		t.Fatal("delete failed after abort")
	}
	if ix.Len() != len(tuples)-1 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
}

func TestAbortMigrationNoOpWhenIdle(t *testing.T) {
	ix, _ := populated(t, 10)
	if st, ok := ix.AbortMigration(); ok || st.Tuples != 0 {
		t.Fatal("abort with no migration in flight must be a no-op")
	}
}

// TestAbortThenRestartMigration: after a rollback the index must accept a
// fresh migration and drain it to completion.
func TestAbortThenRestartMigration(t *testing.T) {
	ix, tuples := populated(t, 60)
	if err := ix.StartMigration(NewConfig(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	ix.MigrateStep(20)
	if _, ok := ix.AbortMigration(); !ok {
		t.Fatal("abort failed")
	}
	if err := ix.StartMigration(NewConfig(1, 2, 3)); err != nil {
		t.Fatalf("restart after abort: %v", err)
	}
	for {
		if _, done := ix.MigrateStep(16); done {
			break
		}
	}
	if !ix.Config().Equal(NewConfig(1, 2, 3)) {
		t.Fatalf("config = %v", ix.Config())
	}
	for _, want := range tuples {
		found := false
		ix.Search(query.FullPattern(3), want.Attrs, func(x *tuple.Tuple) bool {
			if x == want {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("tuple %v lost across abort+remigrate", want)
		}
	}
}

// TestMidMigrationStatsNoDoubleHash pins exact hash accounting while both
// directories are live: an attribute constrained by the pattern is hashed
// once per probe — its value does not depend on the configuration, so
// consulting the old AND the new layout must still charge a single C_h.
// The same invariant holds for deletes, which compute two bucket ids, and
// at eight stripes. A regression that hashes per directory doubles
// the probe cost the tuner feeds into the paper's Crq model.
func TestMidMigrationStatsNoDoubleHash(t *testing.T) {
	build := func() *Index {
		ix := mustNew(t, NewConfig(4, 4, 4), []int{0, 1, 2}, nil)
		for i := 0; i < 40; i++ {
			ix.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{
				tuple.Value(i % 5), tuple.Value(i % 3), tuple.Value(i % 7),
			}))
		}
		if err := ix.StartMigration(NewConfig(6, 6, 0)); err != nil {
			t.Fatal(err)
		}
		ix.MigrateStep(15) // leave both directories populated
		return ix
	}

	vals := []tuple.Value{2, 1, 3}
	cases := []struct {
		p          query.Pattern
		wantHashes int
	}{
		// Attrs 0 and 1 are indexed under both configurations: one hash
		// each, never two.
		{query.PatternOf(0, 1), 2},
		// Attr 2 is indexed only under the old configuration: it is hashed
		// for the old probe and skipped (0 bits) by the new one.
		{query.PatternOf(0, 2), 2},
		{query.FullPattern(3), 3},
		{query.PatternOf(2), 1},
	}
	for _, c := range cases {
		ix := build()
		if !ix.Migrating() {
			t.Fatal("migration finished prematurely; shrink the step")
		}
		st := ix.Search(c.p, vals, func(*tuple.Tuple) bool { return true })
		if st.Hashes != c.wantHashes {
			t.Errorf("search %v: Hashes = %d, want %d", c.p, st.Hashes, c.wantHashes)
		}
	}

	// Deletes compute the tuple's bucket id under both layouts from three
	// attribute hashes — the memo must dedupe them too.
	ix := build()
	victim := tuple.New(0, 1000, 0, []tuple.Value{1, 1, 1})
	ix.Insert(victim)
	st, ok := ix.Delete(victim)
	if !ok {
		t.Fatal("delete failed")
	}
	if st.Hashes != 3 {
		t.Errorf("delete mid-migration: Hashes = %d, want 3", st.Hashes)
	}

	// Sharded twin of the same invariant.
	sx := mustNewSharded(t, NewConfig(4, 4, 4), []int{0, 1, 2}, nil, 8)
	for i := 0; i < 40; i++ {
		sx.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{
			tuple.Value(i % 5), tuple.Value(i % 3), tuple.Value(i % 7),
		}))
	}
	if err := sx.StartMigration(NewConfig(6, 6, 0)); err != nil {
		t.Fatal(err)
	}
	sx.MigrateStep(15)
	if !sx.Migrating() {
		t.Fatal("sharded migration finished prematurely")
	}
	for _, c := range cases {
		st := sx.Search(c.p, vals, func(*tuple.Tuple) bool { return true })
		if st.Hashes != c.wantHashes {
			t.Errorf("sharded search %v: Hashes = %d, want %d", c.p, st.Hashes, c.wantHashes)
		}
	}
	svict := tuple.New(0, 1001, 0, []tuple.Value{1, 1, 1})
	sx.Insert(svict)
	sst, ok := sx.Delete(svict)
	if !ok {
		t.Fatal("sharded delete failed")
	}
	if sst.Hashes != 3 {
		t.Errorf("sharded delete mid-migration: Hashes = %d, want 3", sst.Hashes)
	}
}

// TestSparseDrainStatsReproducible: two identically fed indexes drained by
// the same steps must charge identical Stats to the same mid-drain probes.
// Which tuples a bounded step moves first decides which non-matching
// colliding tuples a probe still meets in the old directory, so the drain
// order must not inherit a sparse directory's map iteration order — the
// engine's virtual clock is computed from these numbers. The second drain
// runs over buckets an AbortMigration refilled, whose order must not
// inherit it either.
func TestSparseDrainStatsReproducible(t *testing.T) {
	for _, stripes := range []int{1, 8} {
		var twins [2]*Index
		for i := range twins {
			// 16 buckets of ~25 tuples: a bounded step ends inside a bucket.
			twins[i] = mustNewSharded(t, NewConfig(2, 1, 1), []int{0, 1, 2}, nil, stripes, WithDenseLimit(0))
			rng := rand.New(rand.NewPCG(9, 9))
			for k := 0; k < 400; k++ {
				twins[i].Insert(tuple.New(0, uint64(k), 0, []tuple.Value{
					tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64))}))
			}
		}
		rng := rand.New(rand.NewPCG(10, 10))
		for _, round := range []struct {
			next Config
			step int // differs, so the second drain ends inside a refilled bucket
		}{{NewConfig(4, 4, 4), 150}, {NewConfig(3, 5, 4), 90}} {
			for _, ix := range twins {
				ix.AbortMigration() // the second round's: no-op on the first
				if err := ix.StartMigration(round.next); err != nil {
					t.Fatal(err)
				}
				if _, done := ix.MigrateStep(round.step); done {
					t.Fatal("drain finished; the probes below must land mid-drain")
				}
			}
			for k := 0; k < 64; k++ {
				p := query.Pattern(1+rng.IntN(7)) & query.FullPattern(3)
				vals := []tuple.Value{tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64)), tuple.Value(rng.Uint64N(64))}
				sa := twins[0].Search(p, vals, func(*tuple.Tuple) bool { return true })
				sb := twins[1].Search(p, vals, func(*tuple.Tuple) bool { return true })
				if sa != sb {
					t.Fatalf("stripes=%d, draining to %v: probe %v %v charged %+v on one index and %+v on its twin", stripes, round.next, p, vals, sa, sb)
				}
			}
		}
	}
}

// TestMigrateStepExactBudget pins the completion rule: a drain is done the
// moment the last tuple moves, not one call later. A state of exactly 2n
// tuples finishes on the second MigrateStep(n), and the next probe consults
// one directory only.
func TestMigrateStepExactBudget(t *testing.T) {
	const n = 50
	for _, stripes := range []int{1, 8} {
		ix := mustNewSharded(t, NewConfig(3, 3, 0), []int{0, 1, 2}, nil, stripes)
		for i := 0; i < 2*n; i++ {
			ix.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{tuple.Value(i), tuple.Value(i * 7), 0}))
		}
		next := NewConfig(2, 2, 2)
		if err := ix.StartMigration(next); err != nil {
			t.Fatal(err)
		}
		if st, done := ix.MigrateStep(n); done || st.Tuples != n {
			t.Fatalf("stripes=%d: first step moved %d tuples, done=%v; want %d, not done", stripes, st.Tuples, done, n)
		}
		if st, done := ix.MigrateStep(n); !done || st.Tuples != n {
			t.Fatalf("stripes=%d: second step moved %d tuples, done=%v; want %d, done", stripes, st.Tuples, done, n)
		}
		if ix.Migrating() {
			t.Fatalf("stripes=%d: still migrating with nothing left to move", stripes)
		}
		p := query.PatternOf(0)
		st := ix.Search(p, []tuple.Value{1, 0, 0}, func(*tuple.Tuple) bool { return true })
		if want := 1 << uint(next.TotalBits()-next.BitsFor(p)); st.Buckets != want {
			t.Fatalf("stripes=%d: probe after the drain visited %d buckets, want one directory's %d", stripes, st.Buckets, want)
		}
	}
}
