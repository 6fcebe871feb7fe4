package bitindex

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"amri/internal/query"
	"amri/internal/tuple"
)

// This file implements the concurrent variant of the bit-address index: a
// ShardedIndex splits the bucket-id space by the HIGH bits of the bucket id
// into 2^s lock-striped sub-directories ("shards"), so inserts, deletes and
// wildcard fan-out searches that touch disjoint shards proceed concurrently.
// The IC semantics of the flat Index are preserved exactly: the bucket id of
// a tuple is computed identically, a shard merely stores the id's low
// ("local") bits in its own directory, and Stats are merged per shard so the
// cost accounting matches the flat index probe for probe (hash computations
// are charged once per attribute per operation, never once per shard).
//
// Concurrency contract (see DESIGN.md §10 for the lock order):
//
//   - every operation holds mu for reading for its full duration, plus the
//     per-shard locks of the shards it touches;
//   - configuration changes (StartMigration, MigrateStep, AbortMigration,
//     Migrate) hold mu exclusively, each for a bounded amount of work —
//     an incremental migration never rebuilds the whole index under one
//     critical section, so retuning never stops the world for more than
//     one bounded step;
//   - search results are always exact: a probe overlapping a migration sees
//     every stored tuple exactly once, because the steps that move tuples
//     between the old and new directories exclude concurrent probes.

// MaxShardBits caps the shard count at 2^8 = 256 sub-directories.
const MaxShardBits = 8

// shard is one lock-striped slice of the live bucket directory. Its
// directory is addressed by the local (low) bits of the bucket id.
type shard struct {
	mu  sync.RWMutex
	dir directory
	// Pad to a full cache line: shard headers sit in one contiguous array
	// and their stripe locks are taken from every probe worker at once, so
	// an unpadded neighbour's lock traffic would invalidate this line.
	_ [64 - 24 - 16]byte
}

// migShard is one slice of a migration's old directory. It is deliberately
// a distinct type from shard: the lock order "old shard before live shard"
// (MigrateStep holds a migShard lock while inserting into destination
// shards) is then a cross-class edge the lockorder analyzer can check.
type migShard struct {
	mu      sync.RWMutex
	dir     directory
	pending []uint64 // old-local bucket ids not yet drained
}

// epoch is a point-in-time snapshot of one directory generation's geometry
// (the live one, or a migration's old one): the configuration, its layout,
// and how the bucket id splits into shard-selecting high bits and
// directory-local low bits. Epochs are read under mu and passed by value so
// helpers need no further locking.
type epoch struct {
	cfg       Config
	lay       layout
	localBits uint // bucket-id bits stored inside a shard directory
	n         int  // active shard count, 1 << min(shardBits, TotalBits)
}

func newEpoch(cfg Config, shardBits uint) epoch {
	tb := uint(cfg.TotalBits())
	eff := shardBits
	if eff > tb {
		eff = tb
	}
	return epoch{cfg: cfg, lay: newLayout(cfg), localBits: tb - eff, n: 1 << eff}
}

// shardOf returns the shard index the bucket id routes to.
func (e epoch) shardOf(id uint64) int { return int(id >> e.localBits) }

// localOf returns the bucket id within its shard's directory.
func (e epoch) localOf(id uint64) uint64 { return id & e.localMask() }

// localMask masks the directory-local bits of a bucket id.
func (e epoch) localMask() uint64 {
	if e.localBits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << e.localBits) - 1
}

// shardedMigration tracks an in-progress incremental migration of a
// ShardedIndex. Its fields are written only under the index's exclusive
// lock; left is additionally decremented by concurrent deletes (which hold
// the lock for reading) and is therefore atomic.
type shardedMigration struct {
	old    epoch
	shards []migShard
	cursor int          // round-robin drain position, advanced per drained shard
	left   atomic.Int64 // tuples not yet moved out of the old shards
}

// ShardedIndex is a goroutine-safe bit-address index: the directory is
// lock-striped over the high bits of the bucket id. It provides the same
// operations and the same Stats accounting as Index; see the file comment
// for the concurrency contract.
type ShardedIndex struct {
	hasher    Hasher
	attrMap   []int
	opts      options
	shardBits uint

	// mu guards the configuration epoch and the in-flight migration.
	mu   sync.RWMutex
	live epoch
	// gen identifies the live epoch; drawn from the process-wide epochGen
	// counter so generations are unique ACROSS indexes — workers share one
	// SearchScratch over every operator's index, and the spread-table cache
	// keys on (pattern, gen) alone. Read under mu (any mode).
	gen uint64
	mig *shardedMigration

	shards []shard

	count      atomic.Int64
	tupleBytes atomic.Int64
}

// NewSharded builds an empty sharded index with the given number of
// lock-striped shards (a power of two in [1, 256]). attrMap and hasher have
// the same meaning as in New.
func NewSharded(cfg Config, attrMap []int, hasher Hasher, shards int, opts ...Option) (*ShardedIndex, error) {
	if shards <= 0 || shards > 1<<MaxShardBits || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("bitindex: shard count %d must be a power of two in [1, %d]", shards, 1<<MaxShardBits)
	}
	if err := cfg.Validate(len(attrMap)); err != nil {
		return nil, err
	}
	if hasher == nil {
		hasher = DefaultHasher
	}
	o := options{denseLimit: DefaultDenseLimit}
	for _, fn := range opts {
		fn(&o)
	}
	ix := &ShardedIndex{
		hasher:    hasher,
		attrMap:   append([]int(nil), attrMap...),
		opts:      o,
		shardBits: uint(bits.TrailingZeros(uint(shards))),
		shards:    make([]shard, shards),
	}
	ix.live = newEpoch(cfg.Clone(), ix.shardBits)
	ix.gen = epochGen.Add(1)
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir = newDirectoryBits(int(ix.live.localBits), o.denseLimit)
		sh.mu.Unlock()
	}
	return ix, nil
}

// ShardCount returns the number of lock stripes the index was built with.
func (ix *ShardedIndex) ShardCount() int { return len(ix.shards) }

// Config returns a copy of the active index configuration.
func (ix *ShardedIndex) Config() Config {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live.cfg.Clone()
}

// Len returns the number of stored tuples.
func (ix *ShardedIndex) Len() int { return int(ix.count.Load()) }

// Migrating reports whether an incremental migration is in progress.
func (ix *ShardedIndex) Migrating() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.mig != nil
}

// hashMemo memoizes per-attribute hash computations within one operation,
// so an attribute consulted under both migration epochs is hashed — and
// charged — once. It lives on the caller's stack: the sharded index keeps
// no per-operation scratch on the receiver, which is what makes concurrent
// probes safe.
type hashMemo struct {
	val [query.MaxAttrs]uint64
	ok  [query.MaxAttrs]bool
}

func memoizedHash(h Hasher, hm *hashMemo, i int, v tuple.Value, st *Stats) uint64 {
	if !hm.ok[i] {
		hm.val[i] = h(i, v)
		hm.ok[i] = true
		st.Hashes++
	}
	return hm.val[i]
}

// shardBucketID computes the bucket id of t under one epoch, charging one
// hash per indexed attribute (single-epoch operations need no memo).
func shardBucketID(h Hasher, attrMap []int, e epoch, t *tuple.Tuple, st *Stats) uint64 {
	var id uint64
	for i, b := range e.cfg.Bits {
		if b == 0 {
			continue
		}
		hv := h(i, t.Attrs[attrMap[i]])
		id |= e.lay.fieldOf(i, hv, b)
		st.Hashes++
	}
	return id
}

// memoBucketID is shardBucketID drawing from an operation-scoped memo, for
// operations that compute ids under both migration epochs.
func memoBucketID(h Hasher, attrMap []int, e epoch, hm *hashMemo, t *tuple.Tuple, st *Stats) uint64 {
	var id uint64
	for i, b := range e.cfg.Bits {
		if b == 0 {
			continue
		}
		hv := memoizedHash(h, hm, i, t.Attrs[attrMap[i]], st)
		id |= e.lay.fieldOf(i, hv, b)
	}
	return id
}

// Insert stores the tuple, returning maintenance stats. During a migration
// inserts go to the new (live) directories, exactly as in the flat index.
//
//amrivet:hotpath per-arrival insert on the concurrent index
func (ix *ShardedIndex) Insert(t *tuple.Tuple) Stats {
	var st Stats
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	id, e, hashes := placeTuple(ix.hasher, ix.attrMap, ix.live.cfg, ix.live.lay, t)
	st.Hashes = hashes
	sh := &ix.shards[ix.live.shardOf(id)]
	//amrivet:lockhold stripe lock nests inside the epoch read lock by design: ix.mu only pins the directory geometry, the stripe serializes one bucket span (lock DAG, DESIGN.md §10)
	sh.mu.Lock()
	sh.dir.put(ix.live.localOf(id), e)
	sh.mu.Unlock()
	ix.count.Add(1)
	ix.tupleBytes.Add(int64(t.MemBytes()))
	return st
}

// Delete removes a previously inserted tuple (pointer identity). During a
// migration the old directory is tried first (expiring tuples are the
// oldest ones); both bucket ids draw from one hash memo so each attribute
// is charged a single hash.
func (ix *ShardedIndex) Delete(t *tuple.Tuple) (Stats, bool) {
	var st Stats
	var hm hashMemo
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if m := ix.mig; m != nil {
		oldID := memoBucketID(ix.hasher, ix.attrMap, m.old, &hm, t, &st)
		os := &m.shards[m.old.shardOf(oldID)]
		os.mu.Lock()
		ok := os.dir.remove(m.old.localOf(oldID), t)
		os.mu.Unlock()
		if ok {
			m.left.Add(-1)
			ix.count.Add(-1)
			ix.tupleBytes.Add(-int64(t.MemBytes()))
			return st, true
		}
	}
	id := memoBucketID(ix.hasher, ix.attrMap, ix.live, &hm, t, &st)
	sh := &ix.shards[ix.live.shardOf(id)]
	sh.mu.Lock()
	ok := sh.dir.remove(ix.live.localOf(id), t)
	sh.mu.Unlock()
	if ok {
		ix.count.Add(-1)
		ix.tupleBytes.Add(-int64(t.MemBytes()))
	}
	return st, ok
}

// shardPlan is the per-epoch execution plan of one search: the constrained
// bits of the full bucket id, the pattern's field mask, and the wildcard
// fields clipped to the shard-local bits. Wildcard bits above the local
// boundary select shards instead and are handled by the candidate-shard
// filter. Plans live on the caller's stack.
type shardPlan struct {
	base     uint64
	mask     uint64
	wild     [query.MaxAttrs]wildField
	nWild    int
	wildBits int // wildcard bits inside a shard's local id
}

func buildShardPlan(e epoch, h Hasher, hm *hashMemo, p query.Pattern, vals []tuple.Value, st *Stats, pl *shardPlan) {
	pl.base, pl.mask = 0, 0
	pl.nWild, pl.wildBits = 0, 0
	for i, b := range e.cfg.Bits {
		if b == 0 {
			continue
		}
		if p.Has(i) {
			hv := memoizedHash(h, hm, i, vals[i], st)
			pl.base |= e.lay.fieldOf(i, hv, b)
			pl.mask |= e.lay.mask[i]
			continue
		}
		shift := e.lay.shift[i]
		lo := int(e.localBits) - int(shift)
		if lo > int(b) {
			lo = int(b)
		}
		if lo > 0 {
			pl.wild[pl.nWild] = wildField{shift: shift, bits: uint8(lo)}
			pl.nWild++
			pl.wildBits += lo
		}
	}
}

// spread distributes the wildcard counter's bits into the plan's local
// wildcard fields (the sharded twin of Index.spread).
func (pl *shardPlan) spread(c uint64) uint64 {
	var id uint64
	for i := 0; i < pl.nWild; i++ {
		f := pl.wild[i]
		id |= (c & ((1 << uint(f.bits)) - 1)) << f.shift
		c >>= uint(f.bits)
	}
	return id
}

// probeShardDir scans one shard's directory under an already-held shard
// lock. The enumerate-versus-masked-iteration decision is made per shard
// against that shard's occupancy — a sparse shard with a wide wildcard span
// iterates its occupied buckets instead of enumerating ids, just like the
// flat index decides against its whole directory. Returns false when the
// visitor stopped early.
func probeShardDir(d directory, e epoch, pl *shardPlan, st *Stats, visit func(*tuple.Tuple) bool) bool {
	localBase := pl.base & e.localMask()
	enumerate := true
	if _, sparse := d.(*sparseDir); sparse {
		if pl.wildBits >= 63 || (1<<uint(pl.wildBits)) > uint64(d.occupied()) {
			enumerate = false
		}
	}
	if enumerate {
		span := uint64(1) << uint(pl.wildBits)
		for c := uint64(0); c < span; c++ {
			id := localBase | pl.spread(c)
			st.Buckets++
			if !scanBucket(d.bucket(id), st, visit) {
				return false
			}
		}
		return true
	}
	lmask := pl.mask & e.localMask()
	want := localBase & lmask
	ok := true
	d.forEach(func(id uint64, b []entry) bool {
		st.DirScans++
		if id&lmask != want {
			return true
		}
		st.Buckets++
		if !scanBucket(b, st, visit) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Search visits every tuple stored in the buckets the access pattern
// addresses, fanning out over the shards whose high bits are consistent
// with the constrained attributes. Per-shard counters are merged into the
// returned Stats; hash computations are charged once per constrained
// attribute for the whole operation, even mid-migration when both the old
// and the new directories are probed.
//
//amrivet:hotpath concurrent bucket-span scan with per-shard fan-out
func (ix *ShardedIndex) Search(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) Stats {
	var st Stats
	var hm hashMemo
	var pl shardPlan
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// During an incremental migration not-yet-moved tuples live in the old
	// shards: probe them first, with the old epoch's geometry.
	if m := ix.mig; m != nil {
		buildShardPlan(m.old, ix.hasher, &hm, p, vals, &st, &pl)
		hiMask := pl.mask &^ m.old.localMask()
		hiWant := pl.base & hiMask
		for k := 0; k < m.old.n; k++ {
			if (uint64(k)<<m.old.localBits)&hiMask != hiWant {
				continue
			}
			os := &m.shards[k]
			//amrivet:lockhold old-shard read lock nests inside the epoch read lock by design: probes scan a draining migration's slices one stripe at a time (lock DAG, DESIGN.md §10)
			os.mu.RLock()
			cont := probeShardDir(os.dir, m.old, &pl, &st, visit)
			os.mu.RUnlock()
			if !cont {
				return st
			}
		}
	}
	buildShardPlan(ix.live, ix.hasher, &hm, p, vals, &st, &pl)
	hiMask := pl.mask &^ ix.live.localMask()
	hiWant := pl.base & hiMask
	for k := 0; k < ix.live.n; k++ {
		if (uint64(k)<<ix.live.localBits)&hiMask != hiWant {
			continue
		}
		sh := &ix.shards[k]
		//amrivet:lockhold stripe read lock nests inside the epoch read lock by design: concurrent probes of disjoint stripes proceed in parallel (lock DAG, DESIGN.md §10)
		sh.mu.RLock()
		cont := probeShardDir(sh.dir, ix.live, &pl, &st, visit)
		sh.mu.RUnlock()
		if !cont {
			return st
		}
	}
	return st
}

// StartMigration begins an incremental migration to newCfg: the live shard
// directories become the migration's old shards and fresh (empty) live
// directories are installed under the new configuration, which immediately
// serves inserts and searches. Stored tuples drain via MigrateStep. The
// critical section moves directory POINTERS only — no tuple is rehashed
// here, so starting a migration is O(occupied buckets), not O(tuples).
func (ix *ShardedIndex) StartMigration(newCfg Config) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.mig != nil {
		return fmt.Errorf("bitindex: migration already in progress")
	}
	if err := newCfg.Validate(len(ix.attrMap)); err != nil {
		return err
	}
	if newCfg.Equal(ix.live.cfg) {
		return fmt.Errorf("bitindex: migration to identical configuration")
	}
	old := ix.live
	m := &shardedMigration{old: old, shards: make([]migShard, old.n)}
	total := int64(0)
	for k := 0; k < old.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		d := sh.dir
		sh.dir = nil
		sh.mu.Unlock()
		var pending []uint64
		cnt := 0
		d.forEach(func(id uint64, b []entry) bool {
			pending = append(pending, id)
			cnt += len(b)
			return true
		})
		ms := &m.shards[k]
		ms.mu.Lock()
		ms.dir = d
		ms.pending = pending
		ms.mu.Unlock()
		total += int64(cnt)
	}
	m.left.Store(total)
	ix.live = newEpoch(newCfg.Clone(), ix.shardBits)
	ix.gen = epochGen.Add(1)
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir = newDirectoryBits(int(ix.live.localBits), ix.opts.denseLimit)
		sh.mu.Unlock()
	}
	ix.mig = m
	return nil
}

// MigrateStep relocates up to n tuples from the old shards into the live
// ones, returning the work done and whether the migration completed. The
// drain is shard-local: it works through one old shard at a time (resuming
// where the previous call stopped, rotating round-robin as shards drain),
// and each step's critical section is bounded by n — concurrent probes
// interleave between steps, so retuning never stops the world for longer
// than one bounded step. Calling it with no migration in progress is a
// no-op reporting done.
func (ix *ShardedIndex) MigrateStep(n int) (st Stats, done bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m := ix.mig
	if m == nil {
		return st, true
	}
	idle := 0 // consecutive drained shards seen without moving a tuple
	for n > 0 && m.left.Load() > 0 && idle <= len(m.shards) {
		os := &m.shards[m.cursor]
		moved := 0
		os.mu.Lock()
		for n > 0 && len(os.pending) > 0 {
			id := os.pending[len(os.pending)-1]
			bucket := os.dir.bucket(id)
			if len(bucket) == 0 {
				os.pending = os.pending[:len(os.pending)-1]
				continue
			}
			// Move from the bucket's tail so removal is O(1).
			e := bucket[len(bucket)-1]
			os.dir.remove(id, e.t)
			newID := shardBucketID(ix.hasher, ix.attrMap, ix.live, e.t, &st)
			dst := &ix.shards[ix.live.shardOf(newID)]
			dst.mu.Lock()
			dst.dir.put(ix.live.localOf(newID), e)
			dst.mu.Unlock()
			st.Tuples++
			m.left.Add(-1)
			moved++
			n--
		}
		drained := len(os.pending) == 0
		os.mu.Unlock()
		if moved == 0 {
			idle++
		} else {
			idle = 0
		}
		if drained {
			m.cursor++
			if m.cursor >= len(m.shards) {
				m.cursor = 0
			}
		}
	}
	if m.left.Load() <= 0 {
		ix.mig = nil
		return st, true
	}
	return st, false
}

// AbortMigration rolls back an in-progress incremental migration: the old
// shard directories become authoritative again and every tuple that already
// reached the new directories — moved by MigrateStep or inserted since
// StartMigration — is re-inserted under the old configuration. Reports
// false when no migration is running.
func (ix *ShardedIndex) AbortMigration() (Stats, bool) {
	var st Stats
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m := ix.mig
	if m == nil {
		return st, false
	}
	var moved []entry
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir.forEach(func(_ uint64, b []entry) bool {
			moved = append(moved, b...)
			return true
		})
		sh.dir = nil
		sh.mu.Unlock()
	}
	ix.live = m.old
	ix.gen = epochGen.Add(1)
	for k := 0; k < ix.live.n; k++ {
		ms := &m.shards[k]
		ms.mu.Lock()
		d := ms.dir
		ms.mu.Unlock()
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir = d
		sh.mu.Unlock()
	}
	ix.mig = nil
	for _, e := range moved {
		id := shardBucketID(ix.hasher, ix.attrMap, ix.live, e.t, &st)
		sh := &ix.shards[ix.live.shardOf(id)]
		sh.mu.Lock()
		sh.dir.put(ix.live.localOf(id), e)
		sh.mu.Unlock()
		st.Tuples++
	}
	return st, true
}

// Migrate rebuilds the index under a new configuration all at once (the
// paper's BI₁→BI₂ adaptation), finishing any incremental migration first so
// no tuple is stranded.
func (ix *ShardedIndex) Migrate(newCfg Config) (Stats, error) {
	if err := newCfg.Validate(len(ix.attrMap)); err != nil {
		return Stats{}, err
	}
	var st Stats
	for {
		mst, done := ix.MigrateStep(1 << 16)
		st.Add(mst)
		if done {
			break
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var all []entry
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir.forEach(func(_ uint64, b []entry) bool {
			all = append(all, b...)
			return true
		})
		sh.dir = nil
		sh.mu.Unlock()
	}
	ix.live = newEpoch(newCfg.Clone(), ix.shardBits)
	ix.gen = epochGen.Add(1)
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir = newDirectoryBits(int(ix.live.localBits), ix.opts.denseLimit)
		sh.mu.Unlock()
	}
	for _, e := range all {
		id := shardBucketID(ix.hasher, ix.attrMap, ix.live, e.t, &st)
		sh := &ix.shards[ix.live.shardOf(id)]
		sh.mu.Lock()
		sh.dir.put(ix.live.localOf(id), e)
		sh.mu.Unlock()
		st.Tuples++
	}
	return st, nil
}

// MemBytes returns the simulated resident size: the per-shard directory
// overhead plus the stored tuples, including an in-flight migration's old
// directories — the same accounting as the flat index.
func (ix *ShardedIndex) MemBytes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	total := 128
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.RLock()
		total += sh.dir.memBytes()
		sh.mu.RUnlock()
	}
	if m := ix.mig; m != nil {
		for k := 0; k < m.old.n; k++ {
			ms := &m.shards[k]
			ms.mu.RLock()
			total += ms.dir.memBytes()
			ms.mu.RUnlock()
		}
	}
	return total + int(ix.tupleBytes.Load())
}

// OccupiedBuckets returns the number of non-empty buckets across all
// shards (including a migration's old shards).
func (ix *ShardedIndex) OccupiedBuckets() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	occ := 0
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.RLock()
		occ += sh.dir.occupied()
		sh.mu.RUnlock()
	}
	if m := ix.mig; m != nil {
		for k := 0; k < m.old.n; k++ {
			ms := &m.shards[k]
			ms.mu.RLock()
			occ += ms.dir.occupied()
			ms.mu.RUnlock()
		}
	}
	return occ
}

// String summarizes the index for logs.
func (ix *ShardedIndex) String() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return fmt.Sprintf("ShardedBitIndex{%v, %d shards, %d tuples}",
		ix.live.cfg, len(ix.shards), ix.count.Load())
}

// epochGen issues process-wide unique epoch generations — see ShardedIndex.gen.
var epochGen atomic.Uint64
