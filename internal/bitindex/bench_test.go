package bitindex

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"amri/internal/query"
	"amri/internal/tuple"
)

func benchIndex(b *testing.B, cfg Config, n int) (*Index, []*tuple.Tuple) {
	b.Helper()
	ix, err := New(cfg, []int{0, 1, 2}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	tuples := make([]*tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = tuple.New(0, uint64(i), 0, []tuple.Value{
			tuple.Value(rng.Uint64()), tuple.Value(rng.Uint64()), tuple.Value(rng.Uint64())})
	}
	return ix, tuples
}

func BenchmarkInsert(b *testing.B) {
	ix, tuples := benchIndex(b, NewConfig(4, 4, 4), 1)
	proto := tuples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(proto)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	ix, tuples := benchIndex(b, NewConfig(4, 4, 4), 1)
	proto := tuples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(proto)
		ix.Delete(proto)
	}
}

func benchSearch(b *testing.B, cfg Config, p query.Pattern) {
	ix, tuples := benchIndex(b, cfg, 4096)
	for _, t := range tuples {
		ix.Insert(t)
	}
	vals := []tuple.Value{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(p, vals, func(*tuple.Tuple) bool { return true })
	}
}

func BenchmarkSearchFullPattern(b *testing.B) {
	benchSearch(b, NewConfig(4, 4, 4), query.FullPattern(3))
}

func BenchmarkSearchOneAttr(b *testing.B) {
	benchSearch(b, NewConfig(4, 4, 4), query.PatternOf(0))
}

func BenchmarkSearchOneAttrSparse64(b *testing.B) {
	benchSearch(b, NewConfig(22, 21, 21), query.PatternOf(0))
}

func BenchmarkMigrate(b *testing.B) {
	cfgs := []Config{NewConfig(6, 3, 3), NewConfig(3, 3, 6)}
	ix, tuples := benchIndex(b, cfgs[0], 4096)
	for _, t := range tuples {
		ix.Insert(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Migrate(cfgs[(i+1)%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSearchMatch times the match-collecting probe the pipeline runs on
// its hot path — SearchMatch with a one-equality Matcher on attribute 0
// under IC[4,4,4], over 4096 stored tuples, at 1 and 8 stripes — and reports
// the cost per bucket candidate. attr0 draws the stored tuples' first
// attribute; the probe always asks for value 1.
func benchSearchMatch(b *testing.B, attr0 func(*rand.Rand) tuple.Value) {
	cfg, attrMap := NewConfig(4, 4, 4), []int{0, 1, 2}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ix, err := NewSharded(cfg, attrMap, nil, shards)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(1, 1))
			for i := 0; i < 4096; i++ {
				ix.Insert(tuple.New(0, uint64(i), 0, []tuple.Value{
					attr0(rng), tuple.Value(rng.Uint64()), tuple.Value(rng.Uint64())}))
			}
			p, vals := query.PatternOf(0), []tuple.Value{1, 0, 0}
			m := &Matcher{NEq: 1, EqVal: [query.MaxAttrs]tuple.Value{1}}
			var ss SearchScratch
			st, out := ix.SearchMatch(p, vals, m, &ss, make([]*tuple.Tuple, 0, 4096))
			if st.Tuples == 0 {
				b.Fatal("probe addresses no candidates")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, out = ix.SearchMatch(p, vals, m, &ss, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Tuples), "ns/candidate")
		})
	}
}

// BenchmarkSearchMatchReject: random first attributes, so the probe's 256
// buckets hold ~256 candidates and not one of them matches — the tag
// pre-filter's case.
func BenchmarkSearchMatchReject(b *testing.B) {
	benchSearchMatch(b, func(rng *rand.Rand) tuple.Value { return tuple.Value(rng.Uint64() | 2) })
}

// BenchmarkSearchMatchHit: every stored tuple carries the probed value, so
// all 4096 candidates pass the tag and are dereferenced, matched and
// collected — what the pre-filter costs when it rejects nothing.
func BenchmarkSearchMatchHit(b *testing.B) {
	benchSearchMatch(b, func(*rand.Rand) tuple.Value { return 1 })
}
