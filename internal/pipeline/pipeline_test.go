package pipeline

import (
	"sync"
	"testing"

	"amri/internal/core"
	"amri/internal/engine"
	"amri/internal/query"
	"amri/internal/stream"
)

func TestMailboxFIFO(t *testing.T) {
	mb := newBoundedMailbox[int](0, PolicyBlock, nil)
	for i := 0; i < 100; i += 4 {
		for _, r := range mb.PushWaitBatch([]int{i, i + 1, i + 2, i + 3}) {
			if r != PushAccepted {
				t.Fatal("push to open mailbox failed")
			}
		}
	}
	for i := 0; i < 100; i++ {
		v, ok := mb.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
}

func TestMailboxCloseDrains(t *testing.T) {
	mb := newBoundedMailbox[int](0, PolicyBlock, nil)
	mb.PushWaitBatch([]int{1, 2})
	mb.Close()
	if push1(mb, 3) != PushClosed {
		t.Fatal("push after close should report PushClosed")
	}
	if v, ok := mb.Pop(); !ok || v != 1 {
		t.Fatal("queued items must drain after close")
	}
	if v, ok := mb.Pop(); !ok || v != 2 {
		t.Fatal("queued items must drain after close")
	}
	if _, ok := mb.Pop(); ok {
		t.Fatal("drained closed mailbox must report done")
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	mb := newBoundedMailbox[string](0, PolicyBlock, nil)
	done := make(chan string)
	go func() {
		v, _ := mb.Pop()
		done <- v
	}()
	push1(mb, "hello")
	if got := <-done; got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMailboxConcurrentProducers(t *testing.T) {
	mb := newBoundedMailbox[int](0, PolicyBlock, nil)
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				push1(mb, i)
			}
		}()
	}
	wg.Wait()
	mb.Close()
	n := 0
	for {
		if _, ok := mb.Pop(); !ok {
			break
		}
		n++
	}
	if n != producers*per {
		t.Fatalf("drained %d, want %d", n, producers*per)
	}
}

func smallProfile() stream.Profile {
	return stream.Profile{
		LambdaD:      10,
		PayloadBytes: 40,
		EpochTicks:   40,
		Domains:      []uint64{8, 12, 18, 27, 40, 60},
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Ticks: 0}); err == nil {
		t.Fatal("zero ticks should fail")
	}
}

func TestRunCompletesAndCounts(t *testing.T) {
	r, err := Run(Config{
		Profile: smallProfile(),
		Seed:    1,
		Ticks:   80,
		Method:  core.MethodCDIAHighest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.TuplesIngested != 80*10*4 {
		t.Fatalf("ingested %d, want 3200", r.TuplesIngested)
	}
	if r.Results == 0 {
		t.Fatal("no join results")
	}
	if r.Probes == 0 {
		t.Fatal("no probes recorded")
	}
	if r.Wall <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestRunLiveTuningHappens(t *testing.T) {
	r, err := Run(Config{
		Profile:       smallProfile(),
		Seed:          2,
		Ticks:         150,
		Method:        core.MethodCDIAHighest,
		AutoTuneEvery: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Retunes == 0 {
		t.Fatal("live tuning never migrated any state")
	}
}

// TestPipelineMatchesEngine compares the concurrent pipeline's result count
// against the deterministic engine on the same workload. The two-phase tick
// delivery plus the arrival-stamp filter make the result set identical:
// every probe sees exactly the tuples that arrived before its driver and
// have not expired, regardless of operator interleaving.
func TestPipelineMatchesEngine(t *testing.T) {
	prof := smallProfile()
	const ticks = 100

	run := engine.DefaultRunConfig()
	run.Profile = prof
	run.Seed = 5
	run.MaxTicks = ticks
	run.WarmupTicks = 25
	run.CPUBudget = 1 << 30 // never CPU-bound: the engine finds everything
	run.MemCap = 0
	run.Explore = 0
	run.ExploreBurst = 0
	eng, err := engine.New(run, engine.AMRI(engine.AssessCDIAHighest))
	if err != nil {
		t.Fatal(err)
	}
	exact := eng.Run().TotalResults

	pr, err := Run(Config{
		Profile: prof,
		Seed:    5,
		Ticks:   ticks,
		Method:  core.MethodCDIAHighest,
		Explore: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact == 0 {
		t.Fatal("engine found nothing; workload broken")
	}
	if pr.Results != exact {
		t.Fatalf("pipeline results %d != engine's %d", pr.Results, exact)
	}
}

// TestPipelineNeverDuplicates: with the arrival filter, the pipeline can
// miss racy results but never exceed the exact count. Run several seeds.
func TestPipelineNeverDuplicates(t *testing.T) {
	prof := smallProfile()
	const ticks = 60
	for seed := uint64(1); seed <= 3; seed++ {
		run := engine.DefaultRunConfig()
		run.Profile = prof
		run.Seed = seed
		run.MaxTicks = ticks
		run.WarmupTicks = 20
		run.CPUBudget = 1 << 30
		run.MemCap = 0
		run.Explore = 0
		run.ExploreBurst = 0
		eng, err := engine.New(run, engine.AMRI(engine.AssessCDIAHighest))
		if err != nil {
			t.Fatal(err)
		}
		exact := eng.Run().TotalResults

		pr, err := Run(Config{Profile: prof, Seed: seed, Ticks: ticks,
			Method: core.MethodCDIAHighest, Explore: 0})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Results > exact {
			t.Fatalf("seed %d: pipeline produced %d > exact %d (duplicates!)",
				seed, pr.Results, exact)
		}
	}
}

// TestPipelineFiltersMatchEngine: filtered queries produce identical result
// sets in both execution modes.
func TestPipelineFiltersMatchEngine(t *testing.T) {
	prof := smallProfile()
	q := query.FourWay(60)
	if err := q.AddFilter(query.Filter{Stream: 0, Attr: 0, Op: query.OpLt, Value: 5}); err != nil {
		t.Fatal(err)
	}
	run := engine.DefaultRunConfig()
	run.Query = q
	run.Profile = prof
	run.Seed = 8
	run.MaxTicks = 80
	run.WarmupTicks = 20
	run.CPUBudget = 1 << 30
	run.MemCap = 0
	run.Explore = 0
	run.ExploreBurst = 0
	eng, err := engine.New(run, engine.AMRI(engine.AssessCDIAHighest))
	if err != nil {
		t.Fatal(err)
	}
	exact := eng.Run().TotalResults

	pr, err := Run(Config{Query: q, Profile: prof, Seed: 8, Ticks: 80,
		Method: core.MethodCDIAHighest, Explore: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Results != exact {
		t.Fatalf("pipeline %d != engine %d under filters", pr.Results, exact)
	}
	if exact == 0 {
		t.Fatal("filtered workload produced nothing at all")
	}
}
