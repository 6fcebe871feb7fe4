package bitindex

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"amri/internal/query"
	"amri/internal/tuple"
)

// Stats reports the work one index operation performed, in the units the
// cost model charges: hash computations (C_h each), buckets probed, tuples
// scanned (C_c each), and — sparse directories only — directory entries
// examined during a masked iteration.
type Stats struct {
	Hashes   int
	Buckets  int
	Tuples   int
	DirScans int
	// KeyOps counts auxiliary key entries created or removed — zero for
	// the bit-address index (tuples live in the buckets themselves), one
	// per access module per tuple for the multi-hash-index baseline. Key
	// maintenance is the CPU burden the paper's Section I-A highlights.
	KeyOps int
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Hashes += o.Hashes
	s.Buckets += o.Buckets
	s.Tuples += o.Tuples
	s.DirScans += o.DirScans
	s.KeyOps += o.KeyOps
}

// DefaultDenseLimit is the largest total bit width for which the directory
// is materialized as a flat array; wider configurations use a sparse map.
// 2^18 bucket slots cost ~6 MiB of slice headers, a sensible default cap.
const DefaultDenseLimit = 18

// Option configures index construction.
type Option func(*options)

type options struct {
	denseLimit int
}

// WithDenseLimit overrides the dense/sparse directory crossover (in total
// bits). A limit of 0 forces the sparse directory for any configuration.
func WithDenseLimit(bits int) Option {
	return func(o *options) { o.denseLimit = bits }
}

// This file implements the bit-address index. The bucket-id space is split
// by the HIGH bits of the bucket id into 2^s lock-striped sub-directories
// ("shards"), so inserts, deletes and wildcard fan-out searches that touch
// disjoint shards proceed concurrently; New builds the one-stripe case. The
// stripe count never shows in the IC semantics: the bucket id of a tuple is
// computed identically at every count, a shard merely stores the id's low
// ("local") bits in its own directory, and Stats are merged per shard so the
// cost accounting is the same probe for probe (hash computations are charged
// once per attribute per operation, never once per shard).
//
// Incremental migration: the paper's BI₁→BI₂ adaptation (Migrate) relocates
// every stored tuple at once, which stalls a loaded state for a full
// window's worth of work. StartMigration instead keeps both directory
// generations live and moves tuples in bounded steps:
//
//   - inserts go to the new directories;
//   - deletes try the old directories first, then the new;
//   - searches probe both generations until the old one has drained;
//   - MigrateStep moves up to n tuples per call and reports done the moment
//     the last one has moved.
//
// The trade-off is a bounded search overhead during the transition (two
// bucket spans instead of one) in exchange for never spending more than the
// step budget of maintenance time in one tick.
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

// migration tracks an in-progress incremental migration. Its fields are
// written only under the index's exclusive lock; left is additionally
// decremented by concurrent deletes (which hold the lock for reading) and
// is therefore atomic.
type migration struct {
	old    epoch
	shards []migShard
	cursor int          // round-robin drain position, advanced per drained shard
	left   atomic.Int64 // tuples not yet moved out of the old shards
}

// Index is a bit-address index: it stores tuples directly in buckets
// addressed by the configuration's attribute-field concatenation. It is the
// state's storage, not an auxiliary structure — there are no per-tuple key
// links to maintain (the contrast with the multi-hash-index design). It is
// safe for concurrent use at every stripe count; see the file comment for
// the concurrency contract.
type Index struct {
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
	mig *migration

	shards []shard

	count      atomic.Int64
	tupleBytes atomic.Int64
}

// wildField is one unconstrained attribute's field of the bucket id: a
// probe enumerates every value of it.
type wildField struct {
	shift uint
	bits  uint8
}

// New builds an empty index with a single lock stripe. attrMap[i] gives the
// tuple attribute position that IC field i reads (the state's JAS
// ordering); hasher may be nil for DefaultHasher.
func New(cfg Config, attrMap []int, hasher Hasher, opts ...Option) (*Index, error) {
	return NewSharded(cfg, attrMap, hasher, 1, opts...)
}

// NewSharded builds an empty index whose directory is striped over the
// given number of lock-striped shards (a power of two in [1, 256]).
func NewSharded(cfg Config, attrMap []int, hasher Hasher, shards int, opts ...Option) (*Index, error) {
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
	ix := &Index{
		hasher:    hasher,
		attrMap:   append([]int(nil), attrMap...),
		opts:      o,
		shardBits: uint(bits.TrailingZeros(uint(shards))),
		shards:    make([]shard, shards),
	}
	ix.installLiveLocked(cfg) // not shared yet: no lock to hold
	return ix, nil
}

// Config returns a copy of the active index configuration.
func (ix *Index) Config() Config {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live.cfg.Clone()
}

// Len returns the number of stored tuples.
func (ix *Index) Len() int { return int(ix.count.Load()) }

// Migrating reports whether an incremental migration is in progress.
func (ix *Index) Migrating() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.mig != nil
}

// hashMemo memoizes per-attribute hash computations within one operation,
// so an attribute consulted under both migration epochs is hashed — and
// charged — once: the hash of a value does not depend on the configuration,
// only the field placement does. It lives on the caller's stack: the index
// keeps no per-operation scratch on the receiver, which is what makes
// concurrent probes safe.
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

// Insert stores the tuple, returning maintenance stats (hash computations).
// During a migration inserts go to the new (live) directories.
//
//amrivet:hotpath per-arrival insert
func (ix *Index) Insert(t *tuple.Tuple) Stats {
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

// Delete removes a previously inserted tuple (pointer identity), returning
// stats and whether it was found. Used by window expiry. During a migration
// the old directory is tried first (expiring tuples are the oldest ones);
// both bucket ids draw from one hash memo so each attribute is charged a
// single hash.
func (ix *Index) Delete(t *tuple.Tuple) (Stats, bool) {
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
// wildcard fields.
func (pl *shardPlan) spread(c uint64) uint64 {
	var id uint64
	for i := 0; i < pl.nWild; i++ {
		f := pl.wild[i]
		id |= (c & ((1 << uint(f.bits)) - 1)) << f.shift
		c >>= uint(f.bits)
	}
	return id
}

// bucketIDs lists d's occupied bucket ids in ascending order. Everything
// that moves tuples between directories walks them in this order, never in
// a sparse directory's map iteration order: which tuples a bounded drain
// step moves first decides which colliding non-matches a mid-drain probe
// still meets, so a run-dependent order would leak into Stats — and from
// there into the engine's virtual clock. All callers are cold.
func bucketIDs(d directory) []uint64 {
	ids := make([]uint64, 0, d.occupied())
	d.forEach(func(id uint64, _ []entry) bool {
		ids = append(ids, id)
		return true
	})
	if _, sparse := d.(*sparseDir); sparse {
		slices.Sort(ids)
	}
	return ids
}

// installLiveLocked makes cfg the live epoch over fresh, empty shard
// directories. The caller holds mu exclusively.
func (ix *Index) installLiveLocked(cfg Config) {
	ix.live = newEpoch(cfg.Clone(), ix.shardBits)
	ix.gen = epochGen.Add(1)
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		sh.dir = newDirectoryBits(int(ix.live.localBits), ix.opts.denseLimit)
		sh.mu.Unlock()
	}
}

// takeLiveLocked empties the live shards and returns what they held, in
// bucketIDs order. The caller holds mu exclusively and installs directories
// before releasing it.
func (ix *Index) takeLiveLocked() []entry {
	var all []entry
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		for _, id := range bucketIDs(sh.dir) {
			all = append(all, sh.dir.bucket(id)...)
		}
		sh.dir = nil
		sh.mu.Unlock()
	}
	return all
}

// placeLocked stores e under the live epoch, charging st one relocation:
// the tuple and the hashes of its bucket id. The caller holds mu
// exclusively.
func (ix *Index) placeLocked(e entry, st *Stats) {
	id := shardBucketID(ix.hasher, ix.attrMap, ix.live, e.t, st)
	sh := &ix.shards[ix.live.shardOf(id)]
	sh.mu.Lock()
	sh.dir.put(ix.live.localOf(id), e)
	sh.mu.Unlock()
	st.Tuples++
}

// StartMigration begins an incremental migration to newCfg: the live shard
// directories become the migration's old shards and fresh (empty) live
// directories are installed under the new configuration, which immediately
// serves inserts and searches. Stored tuples drain via MigrateStep. The
// critical section moves directory POINTERS only — no tuple is rehashed
// here, so starting a migration is O(occupied buckets), not O(tuples).
func (ix *Index) StartMigration(newCfg Config) error {
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
	m := &migration{old: old, shards: make([]migShard, old.n)}
	total := int64(0)
	for k := 0; k < old.n; k++ {
		sh := &ix.shards[k]
		sh.mu.Lock()
		d := sh.dir
		sh.dir = nil
		sh.mu.Unlock()
		pending := bucketIDs(d)
		for _, id := range pending {
			total += int64(len(d.bucket(id)))
		}
		ms := &m.shards[k]
		ms.mu.Lock()
		ms.dir = d
		ms.pending = pending
		ms.mu.Unlock()
	}
	m.left.Store(total)
	ix.installLiveLocked(newCfg)
	ix.mig = m
	return nil
}

// MigrateStep relocates up to n tuples from the old shards into the live
// ones, returning the work done and whether the migration completed — which
// it has as soon as no tuple is left to move, so a state of exactly k·n
// tuples drains in k calls. The drain is shard-local: it works through one
// old shard at a time (resuming where the previous call stopped, rotating
// round-robin as shards drain), and each step's critical section is bounded
// by n — concurrent probes interleave between steps, so retuning never
// stops the world for longer than one bounded step. Calling it with no
// migration in progress is a no-op reporting done.
func (ix *Index) MigrateStep(n int) (st Stats, done bool) {
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
			ix.placeLocked(e, &st)
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
// StartMigration — is re-inserted under the old configuration. This is the
// fault-tolerance path: a migration that dies mid-step must leave the index
// exactly as if it had never started (modulo the wasted work, which the
// returned stats price). Reports false when no migration is running.
func (ix *Index) AbortMigration() (Stats, bool) {
	var st Stats
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m := ix.mig
	if m == nil {
		return st, false
	}
	moved := ix.takeLiveLocked()
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
		ix.placeLocked(e, &st)
	}
	return st, true
}

// Migrate rebuilds the index under a new configuration all at once (the
// paper's BI₁→BI₂ adaptation), finishing any incremental migration first so
// no tuple is stranded. It returns the stats of the rebuild: one put per
// tuple, with the hash computations that implies.
func (ix *Index) Migrate(newCfg Config) (Stats, error) {
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
	all := ix.takeLiveLocked()
	ix.installLiveLocked(newCfg)
	for _, e := range all {
		ix.placeLocked(e, &st)
	}
	return st, nil
}

// eachDirLocked calls fn on every directory the index holds — a migration's
// old shards first, then the live ones — under the shard's read lock, until
// fn returns false. The caller holds mu.
func (ix *Index) eachDirLocked(fn func(directory) bool) {
	if m := ix.mig; m != nil {
		for k := range m.shards {
			ms := &m.shards[k]
			ms.mu.RLock()
			ok := fn(ms.dir)
			ms.mu.RUnlock()
			if !ok {
				return
			}
		}
	}
	for k := 0; k < ix.live.n; k++ {
		sh := &ix.shards[k]
		sh.mu.RLock()
		ok := fn(sh.dir)
		sh.mu.RUnlock()
		if !ok {
			return
		}
	}
}

// Scan visits every stored tuple (the full-scan access path), including
// tuples still waiting in a migration's old directories.
func (ix *Index) Scan(visit func(*tuple.Tuple) bool) Stats {
	var st Stats
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.eachDirLocked(func(d directory) bool {
		ok := true
		d.forEach(func(_ uint64, b []entry) bool {
			st.Buckets++
			for _, e := range b {
				st.Tuples++
				if ok = visit(e.t); !ok {
					break
				}
			}
			return ok
		})
		return ok
	})
	return st
}

// MemBytes returns the simulated resident size: the per-shard directory
// overhead plus the stored tuples themselves (the index is the state's
// storage), including an in-flight migration's old directories.
func (ix *Index) MemBytes() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	total := 128 + int(ix.tupleBytes.Load())
	ix.eachDirLocked(func(d directory) bool {
		total += d.memBytes()
		return true
	})
	return total
}

// OccupiedBuckets returns the number of non-empty buckets across all
// shards (including a migration's old shards).
func (ix *Index) OccupiedBuckets() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	occ := 0
	ix.eachDirLocked(func(d directory) bool {
		occ += d.occupied()
		return true
	})
	return occ
}

// BucketBalance measures the current tuple distribution over occupied
// buckets. Value skew concentrates equal keys in equal buckets — no hash
// can spread identical values — so imbalance under skew is a property of
// the data, not the index; this measurement is how the experiments show it.
func (ix *Index) BucketBalance() Balance {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	b := Balance{Tuples: ix.Len()}
	ix.eachDirLocked(func(d directory) bool {
		d.forEach(func(_ uint64, bucket []entry) bool {
			b.Occupied++
			b.MaxBucket = max(b.MaxBucket, len(bucket))
			return true
		})
		return true
	})
	if b.Occupied > 0 {
		b.Mean = float64(b.Tuples) / float64(b.Occupied)
		b.Imbalance = float64(b.MaxBucket) / b.Mean
	}
	return b
}

// Dense reports whether the live shard directories are the flat-array
// variant. Every live shard spans the same local bits, so they all agree.
func (ix *Index) Dense() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sh := &ix.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.dir.(*denseDir)
	return ok
}

// BucketID computes the bucket id the tuple maps to under the current
// configuration, along with the number of hash computations performed
// (one per indexed attribute).
func (ix *Index) BucketID(t *tuple.Tuple) (uint64, int) {
	var st Stats
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return shardBucketID(ix.hasher, ix.attrMap, ix.live, t, &st), st.Hashes
}

// String summarizes the index for logs.
func (ix *Index) String() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return fmt.Sprintf("BitIndex{%v, %d shards, %d tuples}",
		ix.live.cfg, len(ix.shards), ix.count.Load())
}

// epochGen issues process-wide unique epoch generations — see Index.gen.
var epochGen atomic.Uint64
