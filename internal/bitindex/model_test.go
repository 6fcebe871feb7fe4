package bitindex

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"amri/internal/query"
	"amri/internal/tuple"
)

// The model's tuples carry four attributes of which the index reads three,
// out of order: IC field i reads tuple attribute modelAttrMap[i], and
// attribute 1 is absent from the map (an equality on it can only be decided
// by the Matcher, never by a tag).
var modelAttrMap = []int{2, 0, 3}

const (
	modelArity  = 4
	modelDomain = 6 // values per attribute: small, so probes have survivors
)

// modelProbe is one probe as the pipeline builds it: the Matcher carries an
// equality for every attribute the pattern constrains (so every tuple the
// Matcher accepts lies in an addressed bucket, and the expected result is
// computable from the stored set alone), plus, sometimes, equalities the
// pattern does not cover and a driver stamp / window floor.
type modelProbe struct {
	p    query.Pattern
	vals []tuple.Value
	m    Matcher
}

func randomModelProbe(rng *rand.Rand, maxArrival uint64) modelProbe {
	pr := modelProbe{vals: make([]tuple.Value, len(modelAttrMap))}
	var eq [modelArity]bool
	addEq := func(attr int, v tuple.Value) {
		pr.m.EqAttr[pr.m.NEq], pr.m.EqVal[pr.m.NEq] = attr, v
		pr.m.NEq++
		eq[attr] = true
	}
	for i, a := range modelAttrMap {
		if rng.IntN(2) == 0 {
			pr.p = pr.p.With(i)
			pr.vals[i] = tuple.Value(rng.Uint64N(modelDomain))
			addEq(a, pr.vals[i])
		}
	}
	for a := 0; a < modelArity; a++ {
		if !eq[a] && rng.IntN(4) == 0 {
			addEq(a, tuple.Value(rng.Uint64N(modelDomain)))
		}
	}
	if rng.IntN(2) == 0 {
		pr.m.Driver = 1 + rng.Uint64N(maxArrival+1)
		pr.m.MinTS = int64(rng.Uint64N(32))
	}
	return pr
}

// survivors is the oracle: the stored tuples the Matcher accepts.
func (pr *modelProbe) survivors(stored []*tuple.Tuple) []uint64 {
	var seqs []uint64
	for _, x := range stored {
		if matchTuple(&pr.m, x) {
			seqs = append(seqs, x.Seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// modelStats is the Stats oracle: what a probe of pattern p with values vals
// owes the cost model, computed from the plain slice alone. epochs holds the
// configurations the probe consults — the live one, preceded by the old one
// while a migration is in flight.
//
//   - Hashes: one per constrained attribute that any consulted epoch
//     indexes — charged once even when two epochs place it.
//   - Buckets: 2^wildBits per epoch, wildBits being the bits of the
//     unconstrained attributes. Exact for an enumerating probe, which every
//     probe of a dense directory is.
//   - Tuples: the stored tuples whose constrained indexed fields hash to
//     the probe's bits. Exact under a single epoch; mid-drain it depends on
//     which tuples have moved, so callers compare it only outside a drain.
func modelStats(h Hasher, attrMap []int, epochs []Config, p query.Pattern, vals []tuple.Value, stored []*tuple.Tuple) Stats {
	var st Stats
	for i := range attrMap {
		for _, cfg := range epochs {
			if p.Has(i) && cfg.Bits[i] > 0 {
				st.Hashes++
				break
			}
		}
	}
	for _, cfg := range epochs {
		st.Buckets += 1 << uint(cfg.TotalBits()-cfg.BitsFor(p))
	}
	live := epochs[len(epochs)-1]
	for _, x := range stored {
		hit := true
		for i, a := range attrMap {
			if b := live.Bits[i]; p.Has(i) && b > 0 && (h(i, x.Attrs[a])^h(i, vals[i]))&(1<<b-1) != 0 {
				hit = false
				break
			}
		}
		if hit {
			st.Tuples++
		}
	}
	return st
}

// diffStats reports how a probe's Stats differ from the oracle's, or "".
// Buckets (and the absence of masked directory scans) are compared only on
// dense directories, Tuples only under a single epoch — see modelStats.
func diffStats(got, want Stats, dense, draining bool) string {
	if got.Hashes != want.Hashes {
		return fmt.Sprintf("Hashes = %d, model predicts %d", got.Hashes, want.Hashes)
	}
	if dense && (got.Buckets != want.Buckets || got.DirScans != 0) {
		return fmt.Sprintf("Buckets = %d (DirScans %d), model predicts %d enumerated", got.Buckets, got.DirScans, want.Buckets)
	}
	if !draining && got.Tuples != want.Tuples {
		return fmt.Sprintf("Tuples = %d, model predicts %d", got.Tuples, want.Tuples)
	}
	return ""
}

// check probes ix and reports how the result differs from want, or "".
// It is safe to call from several goroutines (concurrent probes racing a
// drain): every buffer is local.
func (pr *modelProbe) check(t *testing.T, ix *Index, want []uint64) (Stats, string) {
	var ss SearchScratch
	got, st := matcherSeqs(t, ix, pr.p, pr.vals, &pr.m, &ss)
	if !sameSeqs(got, want) {
		return st, fmt.Sprintf("SearchMatch(%v, %v, %+v) = %v, want %v", pr.p, pr.vals, pr.m, got, want)
	}
	return st, ""
}

func randomModelConfig(rng *rand.Rand) Config {
	return NewConfig(uint8(rng.IntN(5)), uint8(rng.IntN(5)), uint8(rng.IntN(5)))
}

// TestModelIndex is the layer-owned oracle of the bit-address index: random
// Insert / Delete / StartMigration / MigrateStep(k) / AbortMigration /
// Migrate sequences run against a plain slice of the stored tuples, and
// after every step a random probe must return exactly the tuples of that
// slice its Matcher accepts — mid-drain included — with SearchMatch and
// Search charging equal Stats, and those Stats equal to what modelStats
// predicts from the slice. Each sequence runs for the index New builds and
// for 1 and 8 shards, dense and sparse, under three hashers: the default,
// the identity (the model's small values leave every tag zero: no
// filtering, still exact) and a constant (every tuple in one bucket under
// one tag: the tag can never decide a match on its own). A draining
// migration is also probed from several goroutines while MigrateStep runs.
func TestModelIndex(t *testing.T) {
	hashers := []struct {
		name string
		h    Hasher
	}{
		{"default", DefaultHasher},
		{"identity", IdentityHasher},
		{"constant", func(int, tuple.Value) uint64 { return 0xa5a5a5a5a5a5a5a5 }},
	}
	for _, hs := range hashers {
		for _, shards := range []int{0, 1, 8} { // 0: New, the constructor without a stripe count
			for _, dense := range []bool{true, false} {
				name := fmt.Sprintf("%s/shards=%d/dense=%v", hs.name, shards, dense)
				t.Run(name, func(t *testing.T) {
					limit := DefaultDenseLimit
					if !dense {
						limit = 0
					}
					rng := rand.New(rand.NewPCG(uint64(shards)+1, uint64(limit)))
					cfg := NewConfig(3, 2, 3)
					ix := mustNew(t, cfg, modelAttrMap, hs.h, WithDenseLimit(limit))
					if shards > 0 {
						ix = mustNewSharded(t, cfg, modelAttrMap, hs.h, shards, WithDenseLimit(limit))
					}
					runModel(t, rng, ix, hs.h, dense)
				})
			}
		}
	}
}

func runModel(t *testing.T, rng *rand.Rand, ix *Index, h Hasher, dense bool) {
	var stored []*tuple.Tuple
	var old Config // the configuration an in-flight migration drains from
	arrival := uint64(0)
	for step := 0; step < 400; step++ {
		op := "insert"
		before := ix.Config()
		switch r := rng.IntN(100); {
		case r < 45:
			arrival++
			attrs := make([]tuple.Value, modelArity)
			for i := range attrs {
				attrs[i] = tuple.Value(rng.Uint64N(modelDomain))
			}
			tp := tuple.New(0, arrival, int64(rng.Uint64N(64)), attrs)
			tp.Arrival = arrival
			ix.Insert(tp)
			stored = append(stored, tp)
		case r < 65:
			op = "delete"
			if len(stored) == 0 {
				break
			}
			i := rng.IntN(len(stored))
			if _, ok := ix.Delete(stored[i]); !ok {
				t.Fatalf("step %d: Delete lost tuple %v", step, stored[i])
			}
			if _, ok := ix.Delete(stored[i]); ok {
				t.Fatalf("step %d: Delete removed tuple %v twice", step, stored[i])
			}
			stored[i] = stored[len(stored)-1]
			stored = stored[:len(stored)-1]
		case r < 73:
			op = "start"
			next := randomModelConfig(rng)
			wantErr := ix.Migrating() || next.Equal(ix.Config())
			err := ix.StartMigration(next)
			if (err != nil) != wantErr {
				t.Fatalf("step %d: StartMigration(%v) error %v, want error %v", step, next, err, wantErr)
			}
			if err == nil {
				old = before
			}
		case r < 88:
			op = "step"
			if ix.Migrating() && rng.IntN(3) == 0 {
				op = "racing step"
				raceDrain(t, rng, ix, stored, arrival)
				break
			}
			ix.MigrateStep(1 + rng.IntN(12))
		case r < 93:
			op = "abort"
			was := ix.Migrating()
			if _, ok := ix.AbortMigration(); ok != was || ix.Migrating() {
				t.Fatalf("step %d: AbortMigration = %v with migrating=%v, migrating after = %v", step, ok, was, ix.Migrating())
			}
		default:
			op = "migrate"
			if _, err := ix.Migrate(randomModelConfig(rng)); err != nil {
				t.Fatalf("step %d: Migrate: %v", step, err)
			}
		}
		if ix.Len() != len(stored) {
			t.Fatalf("step %d (%s): Len = %d, oracle holds %d", step, op, ix.Len(), len(stored))
		}
		pr := randomModelProbe(rng, arrival)
		st, diff := pr.check(t, ix, pr.survivors(stored))
		if diff == "" {
			// Nothing moves tuples between the two calls, so Search must
			// charge what SearchMatch did.
			if ref := ix.Search(pr.p, pr.vals, func(*tuple.Tuple) bool { return true }); ref != st {
				diff = fmt.Sprintf("SearchMatch(%v, %v) stats %+v, Search charges %+v", pr.p, pr.vals, st, ref)
			}
		}
		if diff == "" {
			epochs := []Config{ix.Config()}
			if ix.Migrating() {
				epochs = []Config{old, epochs[0]}
			}
			want := modelStats(h, modelAttrMap, epochs, pr.p, pr.vals, stored)
			diff = diffStats(st, want, dense, ix.Migrating())
		}
		if diff != "" {
			t.Fatalf("step %d (%s, migrating=%v, %v): %s", step, op, ix.Migrating(), ix.Config(), diff)
		}
	}
}

// raceDrain drains the in-flight migration in small steps while probe
// goroutines run fixed probes against it. Draining moves tuples between
// directories but never changes the stored set, so every probe, whenever it
// lands, must see exactly the oracle's survivors.
func raceDrain(t *testing.T, rng *rand.Rand, ix *Index, stored []*tuple.Tuple, arrival uint64) {
	const probers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < probers; g++ {
		pr := randomModelProbe(rng, arrival)
		want := pr.survivors(stored)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, diff := pr.check(t, ix, want); diff != "" {
					t.Errorf("probe racing MigrateStep: %s", diff)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for {
		if _, done := ix.MigrateStep(1 + rng.IntN(4)); done {
			break
		}
	}
	close(stop)
	wg.Wait()
}
