package bitindex

import (
	"fmt"

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

// Index is a bit-address index: it stores tuples directly in buckets
// addressed by the configuration's attribute-field concatenation. It is the
// state's storage, not an auxiliary structure — there are no per-tuple key
// links to maintain (the contrast with the multi-hash-index design).
type Index struct {
	cfg        Config
	lay        layout
	hasher     Hasher
	attrMap    []int
	opts       options
	dir        directory
	count      int
	tupleBytes int

	// mig is the in-progress incremental migration, nil when none.
	mig *migration

	wildFields []wildField // scratch for searches

	// hashVal/hashOK memoize per-attribute hash computations within one
	// operation that consults both migration directories, so an attribute
	// hashed for the old layout is not hashed (or charged) again for the
	// new one. Reset via resetHashMemo at the start of each such operation.
	hashVal []uint64
	hashOK  []bool
}

type wildField struct {
	shift uint
	bits  uint8
}

// New builds an empty index. attrMap[i] gives the tuple attribute position
// that IC field i reads (the state's JAS ordering); hasher may be nil for
// DefaultHasher.
func New(cfg Config, attrMap []int, hasher Hasher, opts ...Option) (*Index, error) {
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
		cfg:     cfg.Clone(),
		lay:     newLayout(cfg),
		hasher:  hasher,
		attrMap: append([]int(nil), attrMap...),
		opts:    o,
	}
	ix.dir = newDirectory(ix.cfg, o.denseLimit)
	ix.hashVal = make([]uint64, len(ix.attrMap))
	ix.hashOK = make([]bool, len(ix.attrMap))
	return ix, nil
}

// Config returns a copy of the active index configuration.
func (ix *Index) Config() Config { return ix.cfg.Clone() }

// Len returns the number of stored tuples.
func (ix *Index) Len() int { return ix.count }

// Dense reports whether the directory is the flat-array variant.
func (ix *Index) Dense() bool { _, ok := ix.dir.(*denseDir); return ok }

// BucketID computes the bucket id the tuple maps to under the current
// configuration, along with the number of hash computations performed
// (one per indexed attribute).
func (ix *Index) BucketID(t *tuple.Tuple) (uint64, int) {
	var id uint64
	hashes := 0
	for i, bits := range ix.cfg.Bits {
		if bits == 0 {
			continue
		}
		h := ix.hasher(i, t.Attrs[ix.attrMap[i]])
		id |= ix.lay.fieldOf(i, h, bits)
		hashes++
	}
	return id, hashes
}

// Insert stores the tuple, returning maintenance stats (hash computations).
func (ix *Index) Insert(t *tuple.Tuple) Stats {
	id, e, hashes := placeTuple(ix.hasher, ix.attrMap, ix.cfg, ix.lay, t)
	ix.dir.put(id, e)
	ix.count++
	ix.tupleBytes += t.MemBytes()
	return Stats{Hashes: hashes}
}

// Delete removes a previously inserted tuple (pointer identity), returning
// stats and whether it was found. Used by window expiry. During an
// incremental migration the tuple may still live in the old directory,
// which is tried first (expiring tuples are the oldest ones).
func (ix *Index) Delete(t *tuple.Tuple) (Stats, bool) {
	if ix.mig != nil {
		return ix.deleteMigrating(t)
	}
	var st Stats
	id, hashes := ix.BucketID(t)
	st.Hashes += hashes
	ok := ix.dir.remove(id, t)
	if ok {
		ix.count--
		ix.tupleBytes -= t.MemBytes()
	}
	return st, ok
}

// Search visits every tuple stored in the buckets the access pattern
// addresses. vals[i] supplies the search value for IC field i and is read
// only when p constrains attribute i. The visit callback returns false to
// stop early. Visited tuples are bucket candidates: the caller still
// applies the join predicates (a bucket can contain non-matching tuples
// whenever an attribute has fewer bits than its value space).
//
//amrivet:hotpath bucket-span scan, the innermost per-probe loop
func (ix *Index) Search(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) Stats {
	// During an incremental migration not-yet-moved tuples live in the old
	// directory: a dual-directory search probes both, hashing each
	// constrained attribute only once.
	if ix.mig != nil {
		return ix.searchMigrating(p, vals, visit)
	}
	var st Stats
	var base uint64
	ix.wildFields = ix.wildFields[:0]
	wildBits := 0
	for i, bits := range ix.cfg.Bits {
		if bits == 0 {
			continue
		}
		if p.Has(i) {
			h := ix.hasher(i, vals[i])
			base |= ix.lay.fieldOf(i, h, bits)
			st.Hashes++
		} else {
			ix.wildFields = append(ix.wildFields, wildField{shift: ix.lay.shift[i], bits: bits})
			wildBits += int(bits)
		}
	}

	enumerate := true
	if _, sparse := ix.dir.(*sparseDir); sparse {
		// Masked iteration beats id enumeration once the wildcard span
		// exceeds the number of occupied buckets.
		if wildBits >= 63 || (1<<uint(wildBits)) > uint64(ix.dir.occupied()) {
			enumerate = false
		}
	}

	if enumerate {
		span := uint64(1) << uint(wildBits)
		for c := uint64(0); c < span; c++ {
			id := base | ix.spread(c)
			st.Buckets++
			if !scanBucket(ix.dir.bucket(id), &st, visit) {
				return st
			}
		}
		return st
	}

	mask := ix.lay.patternMask(p)
	want := base & mask
	ix.dir.forEach(func(id uint64, b []entry) bool {
		st.DirScans++
		if id&mask != want {
			return true
		}
		st.Buckets++
		return scanBucket(b, &st, visit)
	})
	return st
}

func scanBucket(b []entry, st *Stats, visit func(*tuple.Tuple) bool) bool {
	for _, e := range b {
		st.Tuples++
		if !visit(e.t) {
			return false
		}
	}
	return true
}

// spread distributes the wildcard counter's bits into the wildcard fields
// recorded by the preceding Search setup.
func (ix *Index) spread(c uint64) uint64 {
	var id uint64
	for _, f := range ix.wildFields {
		id |= (c & ((1 << uint(f.bits)) - 1)) << f.shift
		c >>= uint(f.bits)
	}
	return id
}

// resetHashMemo prepares the per-operation hash memo (allocated in New)
// used by the dual-directory (migrating) operations.
func (ix *Index) resetHashMemo() {
	for i := range ix.hashOK {
		ix.hashOK[i] = false
	}
}

// memoHash returns hasher(i, v), computing and charging it at most once per
// operation. The hash of an attribute value does not depend on the index
// configuration — only the field placement does — so an operation that
// consults both migration directories must pay C_h once per attribute, not
// once per directory.
func (ix *Index) memoHash(i int, v tuple.Value, st *Stats) uint64 {
	if !ix.hashOK[i] {
		ix.hashVal[i] = ix.hasher(i, v)
		ix.hashOK[i] = true
		st.Hashes++
	}
	return ix.hashVal[i]
}

// bucketIDUnder computes the bucket id of t under an arbitrary
// configuration, drawing hashes from the operation's memo.
func (ix *Index) bucketIDUnder(cfg Config, lay layout, t *tuple.Tuple, st *Stats) uint64 {
	var id uint64
	for i, bits := range cfg.Bits {
		if bits == 0 {
			continue
		}
		h := ix.memoHash(i, t.Attrs[ix.attrMap[i]], st)
		id |= lay.fieldOf(i, h, bits)
	}
	return id
}

// searchDir probes one directory under the given configuration, drawing
// hash computations from the operation's memo. It returns false when the
// visitor stopped early.
func (ix *Index) searchDir(dir directory, cfg Config, lay layout, p query.Pattern, vals []tuple.Value, st *Stats, visit func(*tuple.Tuple) bool) bool {
	var base uint64
	ix.wildFields = ix.wildFields[:0]
	wildBits := 0
	for i, bits := range cfg.Bits {
		if bits == 0 {
			continue
		}
		if p.Has(i) {
			h := ix.memoHash(i, vals[i], st)
			base |= lay.fieldOf(i, h, bits)
		} else {
			ix.wildFields = append(ix.wildFields, wildField{shift: lay.shift[i], bits: bits})
			wildBits += int(bits)
		}
	}
	enumerate := true
	if _, sparse := dir.(*sparseDir); sparse {
		if wildBits >= 63 || (1<<uint(wildBits)) > uint64(dir.occupied()) {
			enumerate = false
		}
	}
	if enumerate {
		span := uint64(1) << uint(wildBits)
		for c := uint64(0); c < span; c++ {
			id := base | ix.spread(c)
			st.Buckets++
			if !scanBucket(dir.bucket(id), st, visit) {
				return false
			}
		}
		return true
	}
	mask := lay.patternMask(p)
	want := base & mask
	ok := true
	dir.forEach(func(id uint64, b []entry) bool {
		st.DirScans++
		if id&mask != want {
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

// Scan visits every stored tuple (the full-scan access path), including
// tuples still waiting in a migration's old directory.
func (ix *Index) Scan(visit func(*tuple.Tuple) bool) Stats {
	var st Stats
	stopped := false
	if ix.mig != nil {
		ix.mig.oldDir.forEach(func(_ uint64, b []entry) bool {
			st.Buckets++
			if !scanBucket(b, &st, visit) {
				stopped = true
				return false
			}
			return true
		})
	}
	if stopped {
		return st
	}
	ix.dir.forEach(func(_ uint64, b []entry) bool {
		st.Buckets++
		return scanBucket(b, &st, visit)
	})
	return st
}

// Migrate rebuilds the index under a new configuration, relocating every
// stored tuple (the paper's BI₁→BI₂ adaptation). It returns the stats of
// the rebuild: one put per tuple, with the hash computations that implies.
func (ix *Index) Migrate(newCfg Config) (Stats, error) {
	if err := newCfg.Validate(len(ix.attrMap)); err != nil {
		return Stats{}, err
	}
	// Finish any incremental migration first so no tuple is stranded.
	var pre Stats
	for ix.mig != nil {
		st, done := ix.MigrateStep(1 << 16)
		pre.Add(st)
		if done {
			break
		}
	}
	var all []entry
	ix.dir.forEach(func(_ uint64, b []entry) bool {
		all = append(all, b...)
		return true
	})
	ix.cfg = newCfg.Clone()
	ix.lay = newLayout(ix.cfg)
	ix.dir = newDirectory(ix.cfg, ix.opts.denseLimit)
	st := pre
	for _, e := range all {
		id, hashes := ix.BucketID(e.t)
		ix.dir.put(id, e)
		st.Hashes += hashes
		st.Tuples++
	}
	return st, nil
}

// MemBytes returns the simulated resident size: directory overhead plus the
// stored tuples themselves (the index is the state's storage). An in-flight
// migration's old directory is included.
func (ix *Index) MemBytes() int {
	m := 128 + ix.dir.memBytes() + ix.tupleBytes
	if ix.mig != nil {
		m += ix.mig.oldDir.memBytes()
	}
	return m
}

// OccupiedBuckets returns the number of non-empty buckets.
func (ix *Index) OccupiedBuckets() int { return ix.dir.occupied() }

// String summarizes the index for logs.
func (ix *Index) String() string {
	kind := "sparse"
	if ix.Dense() {
		kind = "dense"
	}
	return fmt.Sprintf("BitIndex{%v, %s, %d tuples, %d occupied}", ix.cfg, kind, ix.count, ix.dir.occupied())
}

// BucketBalance measures the current tuple distribution over occupied
// buckets. Value skew concentrates equal keys in equal buckets — no hash
// can spread identical values — so imbalance under skew is a property of
// the data, not the index; this measurement is how the experiments show it.
func (ix *Index) BucketBalance() Balance {
	b := Balance{Tuples: ix.count}
	ix.dir.forEach(func(_ uint64, bucket []entry) bool {
		b.Occupied++
		if len(bucket) > b.MaxBucket {
			b.MaxBucket = len(bucket)
		}
		return true
	})
	if ix.mig != nil {
		ix.mig.oldDir.forEach(func(_ uint64, bucket []entry) bool {
			b.Occupied++
			if len(bucket) > b.MaxBucket {
				b.MaxBucket = len(bucket)
			}
			return true
		})
	}
	if b.Occupied > 0 {
		b.Mean = float64(b.Tuples) / float64(b.Occupied)
		b.Imbalance = float64(b.MaxBucket) / b.Mean
	}
	return b
}
