package pipeline

// Race regression tests for the paper's central concurrency claim: live
// index tuning (the AdaptiveIndex migrating to a new configuration, via
// internal/bitindex's migration path) proceeds concurrently with probe
// traffic against the same state. `go test -race ./internal/pipeline`
// drives the production operator locking protocol from multiple
// goroutines; any regression in the mutex discipline amrivet's mutexguard
// encodes statically shows up here dynamically.

import (
	"sync"
	"testing"

	"amri/internal/core"
	"amri/internal/query"
	"amri/internal/stream"
	"amri/internal/tuple"
	"amri/internal/window"
)

// newTestOperator assembles a real operator for state 0 of the four-way
// join, mirroring Run's construction. shards > 0 stripes the index and
// makes its retunes incremental.
func newTestOperator(t *testing.T, q *query.Query, autoTuneEvery uint64, seed uint64, shards int) *operator {
	t.Helper()
	spec := q.States[0]
	attrMap := make([]int, spec.NumAttrs())
	for i, ja := range spec.JAS {
		attrMap[i] = ja.Attr
	}
	ix, err := core.New(core.Options{
		NumAttrs:      spec.NumAttrs(),
		AttrMap:       attrMap,
		BitBudget:     12,
		AutoTuneEvery: autoTuneEvery,
		Seed:          seed,
		Shards:        shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := &operator{
		spec:     spec,
		window:   q.WindowTicks,
		ix:       ix,
		retained: window.New(q.WindowTicks, 0),
	}
	o.cur.Store(ix)
	return o
}

// TestConcurrentProbeRetuneRace hammers one operator from concurrent
// inserter, prober and observer goroutines with live tuning set
// aggressively low, so index migrations interleave with probe traffic on
// the operator's lock. The assertions check that migrations really
// happened mid-traffic (otherwise the test exercises nothing) and that
// the index never loses tuples across them; under -race the run also
// validates the locking protocol itself.
func TestConcurrentProbeRetuneRace(t *testing.T) {
	runConcurrentProbeRetune(t, 0)
}

// TestConcurrentProbeRetuneRaceSharded is the same hammer against eight
// stripes: probes overlap each other AND the incremental migrations the
// insert path advances.
func TestConcurrentProbeRetuneRaceSharded(t *testing.T) {
	runConcurrentProbeRetune(t, 8)
}

// probeAndObserve is one probe plus the statistics half the pipeline defers
// to its tick barrier: record the access pattern and run the tuning pass the
// observation claims. Here the pass runs mid-traffic instead — a harsher
// interleaving than Run's, and legal at every stripe count: probes never
// take the operator lock, and the index excludes them from whatever moves
// tuples, be it a bounded MigrateStep or a stop-the-world Migrate.
func probeAndObserve(op *operator, comp *tuple.Composite, sc *probeScratch) {
	op.probeMatch(comp, sc)
	ix := op.cur.Load()
	if ix.ObserveSearches(op.spec.PatternForDone(comp.Done), 1) {
		ix.TuneClaimed()
	}
}

func runConcurrentProbeRetune(t *testing.T, shards int) {
	q := query.FourWay(60)
	op := newTestOperator(t, q, 64, 7, shards)

	gen, err := stream.New(q, smallProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 60
	// Pre-generate the workload so the goroutines below only touch the
	// operator: byStream[s] holds stream s's tuples in arrival order.
	byStream := make([][]*tuple.Tuple, q.NumStreams())
	for tick := int64(0); tick < ticks; tick++ {
		for _, tp := range gen.Tick(tick) {
			byStream[tp.Stream] = append(byStream[tp.Stream], tp)
		}
	}

	var workers sync.WaitGroup
	// Inserter: stream 0's arrivals feed the state.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for _, tp := range byStream[0] {
			op.insert(tp)
		}
	}()
	// Probers: each partner stream's arrivals probe the state with its own
	// access pattern; the skew (relative to the uniform starting
	// configuration) is what makes the tuner migrate.
	probed := make([]int, 3)
	for i, s := range []int{1, 2, 3} {
		workers.Add(1)
		go func(slot, src int) {
			defer workers.Done()
			sc := &probeScratch{vals: make([]tuple.Value, op.spec.NumAttrs()), nprobes: make([]uint64, 1)}
			for _, tp := range byStream[src] {
				comp := tuple.NewComposite(q.NumStreams(), tp)
				probeAndObserve(op, comp, sc)
				probed[slot]++
			}
		}(i, s)
	}
	// Observer: the cross-operator surfaces Run reads from other
	// goroutines (atomic length, locked retune count).
	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = op.length.Load()
			_ = op.retunes()
		}
	}()
	workers.Wait()
	close(stop)
	observer.Wait()

	for i, n := range probed {
		if n == 0 {
			t.Fatalf("prober %d issued no probes", i)
		}
	}
	if got := op.retunes(); got == 0 {
		t.Fatal("no migration happened concurrently with probe traffic; lower AutoTuneEvery")
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if got, want := op.ix.Len(), len(byStream[0]); got != want {
		t.Fatalf("index holds %d tuples after concurrent retunes, want %d (migration lost tuples)", got, want)
	}
}

// TestRunConcurrentRetuneUnderRace runs the whole pipeline with live
// tuning an order of magnitude more aggressive than the default, so the
// full operator graph migrates repeatedly while composites are in flight.
func TestRunConcurrentRetuneUnderRace(t *testing.T) {
	r, err := Run(Config{
		Profile:       smallProfile(),
		Seed:          11,
		Ticks:         120,
		Method:        core.MethodCDIAHighest,
		AutoTuneEvery: 150,
		Explore:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Retunes == 0 {
		t.Fatal("aggressive live tuning produced no migrations")
	}
	if r.Results == 0 {
		t.Fatal("no join results under concurrent retuning")
	}
}
