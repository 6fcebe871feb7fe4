package bitindex

import (
	"fmt"

	"amri/internal/query"
	"amri/internal/tuple"
)

// Incremental migration: the paper's BI₁→BI₂ adaptation relocates every
// stored tuple at once, which stalls a loaded state for a full window's
// worth of work. An incremental migration keeps both directories live and
// moves tuples in bounded steps:
//
//   - inserts go to the new directory;
//   - deletes try the old directory first, then the new;
//   - searches probe both directories (the old one only while it still
//     holds tuples);
//   - MigrateStep moves up to n tuples per call until the old directory
//     drains.
//
// The trade-off is a bounded search overhead during the transition (two
// bucket spans instead of one) in exchange for never spending more than the
// step budget of maintenance time in one tick — ablated by
// BenchmarkMigrationAblation.

// migration tracks an in-progress incremental migration.
type migration struct {
	oldCfg Config
	oldLay layout
	oldDir directory
	// pending lists buckets not yet drained (ids into oldDir).
	pending []uint64
}

// Migrating reports whether an incremental migration is in progress.
func (ix *Index) Migrating() bool { return ix.mig != nil }

// StartMigration begins an incremental migration to newCfg. It fails if a
// migration is already running or the configuration is invalid. The new
// configuration becomes active immediately for inserts and searches; stored
// tuples drain via MigrateStep.
func (ix *Index) StartMigration(newCfg Config) error {
	if ix.mig != nil {
		return fmt.Errorf("bitindex: migration already in progress")
	}
	if err := newCfg.Validate(len(ix.attrMap)); err != nil {
		return err
	}
	if newCfg.Equal(ix.cfg) {
		return fmt.Errorf("bitindex: migration to identical configuration")
	}
	m := &migration{oldCfg: ix.cfg, oldLay: ix.lay, oldDir: ix.dir}
	m.oldDir.forEach(func(id uint64, _ []entry) bool {
		m.pending = append(m.pending, id)
		return true
	})
	ix.cfg = newCfg.Clone()
	ix.lay = newLayout(ix.cfg)
	ix.dir = newDirectory(ix.cfg, ix.opts.denseLimit)
	ix.mig = m
	return nil
}

// MigrateStep relocates up to n tuples from the old directory into the new
// one, returning the work done and whether the migration completed. Calling
// it with no migration in progress is a no-op reporting done.
func (ix *Index) MigrateStep(n int) (st Stats, done bool) {
	m := ix.mig
	if m == nil {
		return Stats{}, true
	}
	for n > 0 && len(m.pending) > 0 {
		id := m.pending[len(m.pending)-1]
		bucket := m.oldDir.bucket(id)
		if len(bucket) == 0 {
			m.pending = m.pending[:len(m.pending)-1]
			continue
		}
		// Move from the bucket's tail so removal is O(1).
		e := bucket[len(bucket)-1]
		m.oldDir.remove(id, e.t)
		newID, hashes := ix.BucketID(e.t)
		ix.dir.put(newID, e)
		st.Hashes += hashes
		st.Tuples++
		n--
	}
	if len(m.pending) == 0 {
		ix.mig = nil
		return st, true
	}
	return st, false
}

// AbortMigration rolls back an in-progress incremental migration: every
// tuple that already reached the new directory — moved by MigrateStep or
// inserted since StartMigration — is re-inserted into the old directory
// under the old configuration, which becomes authoritative again. This is
// the fault-tolerance path: a migration that dies mid-step must leave the
// index exactly as if it had never started (modulo the wasted work, which
// the returned stats price). Reports false when no migration is running.
func (ix *Index) AbortMigration() (Stats, bool) {
	m := ix.mig
	if m == nil {
		return Stats{}, false
	}
	var moved []entry
	ix.dir.forEach(func(_ uint64, b []entry) bool {
		moved = append(moved, b...)
		return true
	})
	ix.cfg = m.oldCfg
	ix.lay = m.oldLay
	ix.dir = m.oldDir
	ix.mig = nil
	var st Stats
	for _, e := range moved {
		id, hashes := ix.BucketID(e.t)
		ix.dir.put(id, e)
		st.Hashes += hashes
		st.Tuples++
	}
	return st, true
}

// deleteMigrating removes t while a migration is in flight: the old
// directory is tried first (expiring tuples are the oldest ones), then the
// new one. Both bucket ids draw from one hash memo, so each attribute is
// hashed — and charged — exactly once even though two layouts are consulted.
func (ix *Index) deleteMigrating(t *tuple.Tuple) (Stats, bool) {
	var st Stats
	ix.resetHashMemo()
	m := ix.mig
	oldID := ix.bucketIDUnder(m.oldCfg, m.oldLay, t, &st)
	if m.oldDir.remove(oldID, t) {
		ix.count--
		ix.tupleBytes -= t.MemBytes()
		return st, true
	}
	newID := ix.bucketIDUnder(ix.cfg, ix.lay, t, &st)
	if ix.dir.remove(newID, t) {
		ix.count--
		ix.tupleBytes -= t.MemBytes()
		return st, true
	}
	return st, false
}

// searchMigrating probes the old directory (with its own layout) and then
// the new one, stopping early if the visitor does. Hash computations are
// memoized across the two passes: a constrained attribute indexed under
// both configurations contributes a single C_h, never two.
func (ix *Index) searchMigrating(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) Stats {
	var st Stats
	ix.resetHashMemo()
	m := ix.mig
	if !ix.searchDir(m.oldDir, m.oldCfg, m.oldLay, p, vals, &st, visit) {
		return st
	}
	ix.searchDir(ix.dir, ix.cfg, ix.lay, p, vals, &st, visit)
	return st
}
