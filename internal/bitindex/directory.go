package bitindex

import "amri/internal/tuple"

// entry is one stored tuple as a bucket holds it: the tuple pointer plus a
// tag, a few hash bits of every IC attribute kept beside the pointer so a
// probe can reject a candidate whose join attributes differ from the
// bucket's own cache line, without loading the tuple (hash.go). A tag is a
// function of the tuple's attribute values alone — never of the index
// configuration — so migrations move entries between directories verbatim.
type entry struct {
	tag uint64
	t   *tuple.Tuple
}

// directory is the bucket container behind an Index. Two implementations:
// a dense flat array for narrow bucket-id spaces and a sparse map for wide
// ones (the practical reading of the paper's 64-bit configurations — 2^64
// materialized buckets cannot exist, so wide ICs must hash occupied ids).
type directory interface {
	put(id uint64, e entry)
	remove(id uint64, t *tuple.Tuple) bool
	bucket(id uint64) []entry
	forEach(fn func(id uint64, b []entry) bool)
	occupied() int
	memBytes() int
}

// newDirectoryBits builds a directory for an id space of the given width:
// each shard's directory spans only the local (low) bits of the bucket id,
// so a configuration too wide for a dense directory as a whole can still
// get dense shards.
func newDirectoryBits(totalBits, denseLimit int) directory {
	if denseLimit >= MaxTotalBits {
		// A dense directory as wide as the 64-bit bucket id cannot exist
		// (1<<64 overflows the slot count to zero); such configurations
		// must take the sparse path.
		denseLimit = MaxTotalBits - 1
	}
	if totalBits <= denseLimit {
		slots := uint64(1) << uint(totalBits)
		return &denseDir{
			buckets: make([][]entry, slots),
			occBits: make([]uint64, (slots+63)/64),
		}
	}
	return &sparseDir{buckets: make(map[uint64][]entry)}
}

// denseDir materializes every bucket slot in a flat array: O(1) addressing,
// 24 bytes of slice header per slot. occBits mirrors per-slot occupancy as a
// bitmap so wildcard enumerations can skip empty buckets with one bit test
// instead of loading the slot's slice header.
type denseDir struct {
	buckets [][]entry
	occBits []uint64
	occ     int
	stored  int
}

// has reports whether bucket id is non-empty via the occupancy bitmap.
func (d *denseDir) has(id uint64) bool {
	return d.occBits[id>>6]&(1<<(id&63)) != 0
}

func (d *denseDir) put(id uint64, e entry) {
	if len(d.buckets[id]) == 0 {
		d.occ++
		d.occBits[id>>6] |= 1 << (id & 63)
	}
	d.buckets[id] = append(d.buckets[id], e)
	d.stored++
}

func (d *denseDir) remove(id uint64, t *tuple.Tuple) bool {
	b := d.buckets[id]
	for i, x := range b {
		if x.t == t {
			b[i] = b[len(b)-1]
			b[len(b)-1] = entry{}
			d.buckets[id] = b[:len(b)-1]
			d.stored--
			if len(d.buckets[id]) == 0 {
				d.occ--
				d.occBits[id>>6] &^= 1 << (id & 63)
			}
			return true
		}
	}
	return false
}

func (d *denseDir) bucket(id uint64) []entry { return d.buckets[id] }

func (d *denseDir) forEach(fn func(id uint64, b []entry) bool) {
	for id, b := range d.buckets {
		if len(b) == 0 {
			continue
		}
		if !fn(uint64(id), b) {
			return
		}
	}
}

func (d *denseDir) occupied() int { return d.occ }

// memBytes is the simulated resident size: a slice header per slot plus 16
// bytes per stored tuple, which is exactly one entry (tag + pointer). The
// constant predates the tag and must not move: the engine's memory meter
// and the EXPERIMENTS.md outputs are computed from it.
func (d *denseDir) memBytes() int {
	return 24*len(d.buckets) + 16*d.stored
}

// sparseDir keys occupied buckets in a map: memory proportional to
// occupancy, masked iteration for wide wildcard searches. Iteration order
// of forEach is unspecified; callers that need determinism (none of the
// hot paths do — search visits are order-insensitive candidate sets) must
// sort themselves, as bucketIDs does for everything that moves tuples.
type sparseDir struct {
	buckets map[uint64][]entry
	stored  int
}

func (d *sparseDir) put(id uint64, e entry) {
	d.buckets[id] = append(d.buckets[id], e)
	d.stored++
}

func (d *sparseDir) remove(id uint64, t *tuple.Tuple) bool {
	b := d.buckets[id]
	for i, x := range b {
		if x.t == t {
			b[i] = b[len(b)-1]
			b[len(b)-1] = entry{}
			if len(b) == 1 {
				delete(d.buckets, id)
			} else {
				d.buckets[id] = b[:len(b)-1]
			}
			d.stored--
			return true
		}
	}
	return false
}

func (d *sparseDir) bucket(id uint64) []entry { return d.buckets[id] }

func (d *sparseDir) forEach(fn func(id uint64, b []entry) bool) {
	for id, b := range d.buckets {
		if !fn(id, b) {
			return
		}
	}
}

func (d *sparseDir) occupied() int { return len(d.buckets) }

// memBytes charges 64 bytes of map overhead per occupied bucket plus the
// same exact 16-byte entry per stored tuple as denseDir.memBytes.
func (d *sparseDir) memBytes() int {
	return 64*len(d.buckets) + 16*d.stored
}
