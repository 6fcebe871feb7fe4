package bitindex

import (
	"sync"

	"amri/internal/query"
	"amri/internal/tuple"
)

// This file implements the probe: the one enumeration of the buckets an
// access pattern addresses. SearchMatch takes a Matcher — the standard
// stream-join candidate filter (exactly-once driver stamp, event-time
// window, join-attribute equality) — and applies it inline while scanning,
// appending survivors to a caller-owned slice: no indirect call per
// candidate and no closure environment for the hot probe loop to keep live.
// The visit-based Search is its client with a Matcher that accepts every
// candidate, so both charge the same Stats by construction.

// Matcher is the inline candidate filter of one probe. Zero Driver disables
// the driver-stamp and window tests (a probe with no driver context); the
// equality conditions always apply.
//
// The Matcher alone decides which candidates of the addressed buckets a
// probe returns. The scan pre-filters on the bucket entries' tags, but the
// pre-filter is derived from these equality conditions and nothing else —
// not from the access pattern or its values — and every tag survivor still
// goes through the full check, so it rejects only what the Matcher would:
// with NEq == 0, or with equalities only on attributes the index does not
// read, every bucket candidate reaches the Matcher.
type Matcher struct {
	// Driver is the driving tuple's arrival stamp: candidates with
	// Arrival >= Driver are rejected (exactly-once — only the newest
	// member of a result drives it).
	Driver uint64
	// MinTS is the driver's event-time window floor: candidates with
	// TS <= MinTS are rejected.
	MinTS int64
	// The first NEq entries of EqAttr/EqVal are the equality conditions:
	// a candidate must satisfy Attrs[EqAttr[k]] == EqVal[k] for all k.
	NEq    int
	EqAttr [query.MaxAttrs]int
	EqVal  [query.MaxAttrs]tuple.Value
}

// SearchScratch carries per-caller reusable buffers for SearchMatch, so a
// probe worker re-probing shard after shard (or probe after probe) never
// reallocates its enumeration scratch. It also caches spread tables: the
// wildcard enumeration spread(0..span) depends only on the pattern and the
// live epoch's geometry — not on the probe's values — so across the
// thousands of probes between retunes it is the same table, and recomputing
// it per probe was measurable (bit-interleaving per id on the hot path).
type SearchScratch struct {
	ids  []uint64
	tabs []spreadTab
}

// spreadTab is one cached wildcard spread table: the enumeration for one
// pattern under one epoch generation. Generations are process-wide unique
// (epochGen), so a (pat, gen) pair can never mean two different geometries
// even though one scratch serves every operator's index.
type spreadTab struct {
	pat query.Pattern
	gen uint64
	tbl []uint64
}

// spreadTable returns spread(c) for c in [0, span) under the plan, cached
// per (pattern, epoch generation). gen must be read under the index lock
// the caller already holds. A full cache is flushed wholesale: entries with
// dead generations are the common overflow cause (retunes), and a flush
// costs one rebuild per live pattern.
func (ss *SearchScratch) spreadTable(pat query.Pattern, gen uint64, pl *shardPlan, span uint64) []uint64 {
	for i := range ss.tabs {
		if ss.tabs[i].pat == pat && ss.tabs[i].gen == gen {
			return ss.tabs[i].tbl
		}
	}
	//amrivet:ignore[hotalloc] cache-miss build path: one allocation per (pattern, epoch), amortized to zero over the thousands of probes between retunes
	tbl := make([]uint64, span)
	for c := uint64(0); c < span; c++ {
		tbl[c] = pl.spread(c)
	}
	if len(ss.tabs) >= maxSpreadTabs {
		ss.tabs = ss.tabs[:0]
	}
	ss.tabs = append(ss.tabs, spreadTab{pat: pat, gen: gen, tbl: tbl})
	return tbl
}

// maxSharedSpan caps the wildcard span SearchMatch materializes into the
// scratch id list for reuse across shards; wider spans enumerate per shard
// to bound scratch memory.
const maxSharedSpan = 1 << 16

// maxCachedSpan bounds the spans worth caching in a SearchScratch spread
// table (32 KiB per table); maxSpreadTabs bounds how many distinct patterns
// one scratch holds before new ones stop being cached (workloads have a
// handful of live patterns — an overflow means churn, not working set).
const (
	maxCachedSpan = 1 << 12
	maxSpreadTabs = 64
)

// probeFilter is one probe's candidate filter: the caller's Matcher plus
// the tag pre-filter derived from it — an entry can satisfy the Matcher's
// equality conditions only if (tag^want)&mask == 0.
type probeFilter struct {
	m          *Matcher
	want, mask uint64
}

// newProbeFilter derives the tag pre-filter, once per probe, from the
// Matcher's equality conditions mapped to IC fields through attrMap; an
// equality on a tuple attribute no field reads contributes no mask bits.
// The pair must come from the Matcher, not from the access pattern: the
// pattern only selects buckets, and a Matcher with fewer equalities than
// the pattern has constrained attributes accepts candidates the pattern's
// values would reject. The hashes are uncharged bookkeeping: they select no
// bucket, and the cost model prices the probe by its Stats.
func newProbeFilter(h Hasher, attrMap []int, m *Matcher) probeFilter {
	f := probeFilter{m: m}
	w := tagWidth(len(attrMap))
	for k := 0; k < m.NEq; k++ {
		for i, a := range attrMap {
			if a == m.EqAttr[k] {
				f.want |= tagField(i, h(i, m.EqVal[k]), w)
				f.mask |= tagField(i, ^uint64(0), w)
			}
		}
	}
	return f
}

// scanBucketMatch scans one bucket with the filter applied inline: every
// candidate is charged to Stats.Tuples (bulk-added up front), with no
// per-candidate indirect call. The tag test runs on the bucket's own memory;
// only its survivors — a superset of the Matcher's — are dereferenced and
// put through the full Matcher.
func scanBucketMatch(b []entry, st *Stats, f *probeFilter, out []*tuple.Tuple) []*tuple.Tuple {
	st.Tuples += len(b)
	want, mask, m := f.want, f.mask, f.m
	for i := range b {
		e := &b[i]
		if (e.tag^want)&mask != 0 || !matchTuple(m, e.t) {
			continue
		}
		out = append(out, e.t) //amrivet:ignore[hotalloc] appends into the caller's receiver-attached scratch, returned for reslice-reuse
	}
	return out
}

// matchTuple applies the Matcher to one candidate: scanBucketMatch's full
// check on tag survivors.
func matchTuple(m *Matcher, x *tuple.Tuple) bool {
	if m.Driver != 0 && (x.Arrival >= m.Driver || x.TS <= m.MinTS) {
		return false
	}
	for k := 0; k < m.NEq; k++ {
		if x.Attrs[m.EqAttr[k]] != m.EqVal[k] {
			return false
		}
	}
	return true
}

// searchMatchMasked is the full-directory masked scan, the non-enumerating
// fallback (wildcard span wider than the occupied slot count). It is its own
// function because the forEach closure boxes what it captures, so it must
// capture locals of a cold function, not the hot probe loop's accumulators —
// inlined, they forced `out` onto the heap on every probe — which is also
// why the filter arrives by value.
func searchMatchMasked(d directory, mask, base uint64, f probeFilter, out []*tuple.Tuple) (Stats, []*tuple.Tuple) {
	var st Stats
	want := base & mask
	d.forEach(func(id uint64, b []entry) bool {
		st.DirScans++
		if id&mask != want {
			return true
		}
		st.Buckets++
		out = scanBucketMatch(b, &st, &f, out)
		return true
	})
	return st, out
}

// probeShardDirMatch scans one shard's directory under an already-held
// shard lock. The enumerate-versus-masked-iteration decision is made per
// shard against that shard's occupancy: masked iteration over a sparse
// shard's occupied buckets beats id enumeration once the wildcard span
// exceeds their number. ids, when non-nil, is the epoch's pre-enumerated
// local bucket-id list (base bits included) — the enumeration is identical
// for every shard of one epoch, so the caller computes it once and each
// shard only tests occupancy and scans. A nil ids enumerates per shard
// (migration's old epoch, or a span too wide to materialize).
func probeShardDirMatch(d directory, e epoch, pl *shardPlan, ids []uint64, st *Stats, f *probeFilter, out []*tuple.Tuple) []*tuple.Tuple {
	enumerate := true
	if _, sparse := d.(*sparseDir); sparse {
		if pl.wildBits >= 63 || (1<<uint(pl.wildBits)) > uint64(d.occupied()) {
			enumerate = false
		}
	}
	if enumerate {
		if dd, dense := d.(*denseDir); dense {
			if ids != nil {
				for _, id := range ids {
					st.Buckets++
					if !dd.has(id) {
						continue
					}
					out = scanBucketMatch(dd.buckets[id], st, f, out)
				}
				return out
			}
			localBase := pl.base & e.localMask()
			span := uint64(1) << uint(pl.wildBits)
			for c := uint64(0); c < span; c++ {
				id := localBase | pl.spread(c)
				st.Buckets++
				if !dd.has(id) {
					continue
				}
				out = scanBucketMatch(dd.buckets[id], st, f, out)
			}
			return out
		}
		if ids != nil {
			for _, id := range ids {
				st.Buckets++
				out = scanBucketMatch(d.bucket(id), st, f, out)
			}
			return out
		}
		localBase := pl.base & e.localMask()
		span := uint64(1) << uint(pl.wildBits)
		for c := uint64(0); c < span; c++ {
			id := localBase | pl.spread(c)
			st.Buckets++
			out = scanBucketMatch(d.bucket(id), st, f, out)
		}
		return out
	}
	lmask := pl.mask & e.localMask()
	mst, out := searchMatchMasked(d, lmask, pl.base&e.localMask(), *f, out)
	st.DirScans += mst.DirScans
	st.Buckets += mst.Buckets
	st.Tuples += mst.Tuples
	return out
}

// SearchMatch scans the buckets the access pattern addresses, fanning out
// over the shards whose high bits are consistent with the constrained
// attributes, appends the tuples accepted by the Matcher to out, and returns
// the work stats plus the extended slice. vals[i] supplies the search value
// for IC field i and is read only when p constrains attribute i. out's
// backing array is reused; pass out[:0] of a caller-owned scratch slice.
// Hash computations are charged once per constrained attribute for the
// whole operation, even mid-migration when both the old and the new
// directories are probed (old first). The wildcard enumeration is computed
// once per epoch instead of once per shard (every shard of an epoch
// enumerates the same local ids — only the high shard-selecting bits differ,
// and those pick which shards are visited, not which local buckets).
//
//amrivet:hotpath match-collecting scan with per-shard fan-out, the innermost per-probe loop
func (ix *Index) SearchMatch(p query.Pattern, vals []tuple.Value, m *Matcher, ss *SearchScratch, out []*tuple.Tuple) (Stats, []*tuple.Tuple) {
	var st Stats
	var hm hashMemo
	var pl shardPlan
	f := newProbeFilter(ix.hasher, ix.attrMap, m)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if mg := ix.mig; mg != nil {
		// Old shards first, per-shard enumeration (the old epoch's geometry
		// is transient; not worth a shared id list).
		buildShardPlan(mg.old, ix.hasher, &hm, p, vals, &st, &pl)
		hiMask := pl.mask &^ mg.old.localMask()
		hiWant := pl.base & hiMask
		for k := 0; k < mg.old.n; k++ {
			if (uint64(k)<<mg.old.localBits)&hiMask != hiWant {
				continue
			}
			os := &mg.shards[k]
			//amrivet:lockhold old-shard read lock nests inside the epoch read lock by design (lock DAG, DESIGN.md §10)
			os.mu.RLock()
			//amrivet:lockhold old-shard read lock nests inside the epoch read lock by design: probes scan a draining migration's slices one stripe at a time (lock DAG, DESIGN.md §10)
			out = probeShardDirMatch(os.dir, mg.old, &pl, nil, &st, &f, out)
			os.mu.RUnlock()
		}
	}
	buildShardPlan(ix.live, ix.hasher, &hm, p, vals, &st, &pl)
	var ids []uint64
	if span := uint64(1) << uint(pl.wildBits); pl.wildBits < 63 && span <= maxSharedSpan && ss != nil {
		localBase := pl.base & ix.live.localMask()
		ids = ss.ids[:0]
		if span <= maxCachedSpan {
			//amrivet:lockhold spread-table lookup under the epoch read lock: gen is only stable while mu is held, and the build path amortizes to zero across the epoch
			for _, s := range ss.spreadTable(p, ix.gen, &pl, span) {
				//amrivet:ignore[hotalloc,lockhold] append into the worker's SearchScratch id list (receiver-attached via ss), resliced across probes
				ids = append(ids, localBase|s)
			}
		} else {
			for c := uint64(0); c < span; c++ {
				//amrivet:ignore[hotalloc,lockhold] append into the worker's SearchScratch id list (receiver-attached via ss), resliced across probes
				ids = append(ids, localBase|pl.spread(c))
			}
		}
		ss.ids = ids
	}
	hiMask := pl.mask &^ ix.live.localMask()
	hiWant := pl.base & hiMask
	for k := 0; k < ix.live.n; k++ {
		if (uint64(k)<<ix.live.localBits)&hiMask != hiWant {
			continue
		}
		sh := &ix.shards[k]
		//amrivet:lockhold stripe read lock nests inside the epoch read lock by design (lock DAG, DESIGN.md §10)
		sh.mu.RLock()
		//amrivet:lockhold stripe read lock nests inside the epoch read lock by design: concurrent probes of disjoint stripes proceed in parallel (lock DAG, DESIGN.md §10)
		out = probeShardDirMatch(sh.dir, ix.live, &pl, ids, &st, &f, out)
		sh.mu.RUnlock()
	}
	return st, out
}

// searchBuf is what one Search call borrows from searchBufs.
type searchBuf struct {
	ss  SearchScratch
	out []*tuple.Tuple
}

var searchBufs = sync.Pool{New: func() any { return new(searchBuf) }}

// acceptAll is the Matcher that rejects nothing. It is never written.
var acceptAll Matcher

// Search visits every tuple stored in the buckets the access pattern
// addresses: SearchMatch with a Matcher that accepts every candidate, then
// visit over what it collected, in order — old shards before live ones,
// each bucket whole and in stored order. Visited tuples are bucket
// candidates: the caller still applies the join predicates (a bucket holds
// non-matching tuples whenever an attribute has fewer bits than its value
// space). visit returns false to stop early and is not called again; it runs
// after the scan, with no index lock held, so the returned Stats are
// SearchMatch's and cover the whole addressed span even on an early stop.
//
//amrivet:hotpath visit-based probe entry point of the virtual-clock stores
func (ix *Index) Search(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) Stats {
	buf := searchBufs.Get().(*searchBuf)
	st, out := ix.SearchMatch(p, vals, &acceptAll, &buf.ss, buf.out[:0])
	for _, t := range out {
		if !visit(t) {
			break
		}
	}
	buf.out = out
	searchBufs.Put(buf)
	return st
}
