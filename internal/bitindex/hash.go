package bitindex

import "amri/internal/tuple"

// Hasher maps a join attribute value to the 64-bit hash whose low bits
// address the attribute's bucket-id field. The attribute position is part
// of the input so equal values in different attributes decorrelate.
type Hasher func(attr int, v tuple.Value) uint64

// DefaultHasher is a splitmix64-style finalizer salted by the attribute
// position: cheap, stateless and well mixed in the low bits, which is what
// the field extraction uses.
func DefaultHasher(attr int, v tuple.Value) uint64 {
	x := v + 0x9e3779b97f4a7c15*uint64(attr+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// IdentityHasher uses the attribute value directly. The paper's Section III
// example assumes this (values 00111, 11, 010 appear verbatim in the bucket
// id); it is also useful for tests that need full control of placement.
func IdentityHasher(_ int, v tuple.Value) uint64 { return v }

// Entry tags. A bucket holds every tuple whose hashed attribute bits match,
// so most candidates of a probe fail the join-equality test — and finding
// that out from the tuple costs a dependent cache miss per candidate. The
// tag keeps enough of each attribute's hash beside the pointer to reject
// nearly all of them from the bucket's own memory: it concatenates, for
// every IC field i, the TOP tagWidth bits of hasher(i, attr_i). The top
// bits are independent of the low bits the bucket id consumes (so they
// still discriminate inside a bucket), and they depend on the attribute
// values alone, never on the configuration, so an entry keeps its tag
// through every migration.

// tagWidth is the number of hash bits each of n IC fields contributes to
// the 64-bit tag, capped at 32: one false survivor per four billion
// candidates is rare enough, and wider fields would only start re-reading
// the low bits the bucket id already tests.
func tagWidth(n int) uint {
	if n == 0 {
		return 0
	}
	return uint(min(64/n, 32))
}

// tagField places the top w bits of hash h in IC field i's slot of a tag.
func tagField(i int, h uint64, w uint) uint64 {
	return h >> (64 - w) << (uint(i) * w)
}

// placeTuple computes, in one pass over the IC fields, the bucket id of t
// under (cfg, lay) and the entry to store there. hashes counts the fields
// the configuration indexes — exactly what BucketID charges; hashing a
// zero-bit field for its tag bits is uncharged bookkeeping.
func placeTuple(h Hasher, attrMap []int, cfg Config, lay layout, t *tuple.Tuple) (id uint64, e entry, hashes int) {
	w := tagWidth(len(attrMap))
	e.t = t
	for i, a := range attrMap {
		hv := h(i, t.Attrs[a])
		e.tag |= tagField(i, hv, w)
		if bits := cfg.Bits[i]; bits != 0 {
			id |= lay.fieldOf(i, hv, bits)
			hashes++
		}
	}
	return id, e, hashes
}
