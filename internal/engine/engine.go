package engine

import (
	"fmt"
	"math"
	"math/bits"

	"amri/internal/assess"
	"amri/internal/bitindex"
	"amri/internal/cost"
	"amri/internal/hashindex"
	"amri/internal/hh"
	"amri/internal/metrics"
	"amri/internal/query"
	"amri/internal/router"
	"amri/internal/sim"
	"amri/internal/stem"
	"amri/internal/storage"
	"amri/internal/stream"
	"amri/internal/tuner"
	"amri/internal/tuple"
)

// task is one unit of queued work: either ingesting an arrival into its
// state or advancing a composite one probe step.
type task struct {
	ingest *tuple.Tuple     // non-nil: insert + start routing
	comp   *tuple.Composite // non-nil: probe the next state
}

func (t task) memBytes() int {
	if t.ingest != nil {
		return 48 + t.ingest.MemBytes()
	}
	// A queued probe is a materialized intermediate result: the engine
	// (like CAPE) carries the joined tuples' content with the request.
	// This is what makes a search-request backlog consume real memory —
	// the paper's reported OOM mechanism for overwhelmed contenders.
	m := 48 + t.comp.MemBytes()
	for _, p := range t.comp.Parts {
		if p != nil {
			m += p.MemBytes()
		}
	}
	return m
}

// Engine executes one contender over one workload.
type Engine struct {
	run RunConfig
	sys System

	q     *query.Query
	src   stream.Source
	gen   *stream.Generator // nil when an external Source is used
	rt    *router.Router
	crt   *router.ContentRouter // non-nil when ContentRouting is on
	clock *sim.Clock
	meter *sim.MemoryMeter
	stems []*stem.STeM

	queue      []task
	queueHead  int
	queueBytes int

	results   uint64
	probes    uint64
	retunes   int
	latencies []int64 // emission tick - driver arrival tick, per result

	// ctls holds one long-lived retuning controller per bit-index state:
	// cooldown, drift and migration-cost calibration accumulate across
	// tuning passes (a fresh controller per pass cannot provide thrash
	// protection). Built lazily on first tuning pass; nil entries are
	// states without a bit index.
	ctls []*tuner.Controller
	// tuneErr latches the first optimizer misconfiguration a tuning pass
	// surfaced; the run continues on the current configurations.
	tuneErr error

	probesPerState []uint64 // since last tuning pass, for λ_r estimation
	lensBuf        []int

	curTick int64

	// allowance is the cumulative CPU capacity granted so far. Every
	// charge — expiry, tuning, migration, queue processing — draws from
	// the same pool, so maintenance-heavy contenders genuinely crowd out
	// their own query processing.
	allowance sim.Units

	warmupDone bool
}

// New builds an engine. The same RunConfig and seed given to different
// systems yields identical arrivals and routing randomness, so contenders
// are compared on exactly the same workload.
func New(run RunConfig, sys System) (*Engine, error) {
	if err := run.Validate(); err != nil {
		return nil, err
	}
	q := run.Query
	if q == nil {
		q = query.FourWay(60)
	}
	var gen *stream.Generator
	src := run.Source
	if src == nil {
		g, err := stream.New(q, run.Profile, run.Seed)
		if err != nil {
			return nil, err
		}
		gen, src = g, g
	} else if v, ok := src.(interface{ Validate(*query.Query) error }); ok {
		// A recorded workload was not generated from q: check it fits
		// before a row indexes past the operators or a tuple's attributes.
		if err := v.Validate(q); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		run:            run,
		sys:            sys,
		q:              q,
		src:            src,
		gen:            gen,
		rt:             router.New(q.NumStreams(), run.Explore, run.Seed+1),
		clock:          sim.NewClock(run.CPUBudget),
		meter:          sim.NewMemoryMeter(run.MemCap),
		probesPerState: make([]uint64, q.NumStreams()),
		lensBuf:        make([]int, q.NumStreams()),
		ctls:           make([]*tuner.Controller, q.NumStreams()),
	}

	for s := 0; s < q.NumStreams(); s++ {
		spec := q.States[s]
		store, err := e.newStore(q, spec)
		if err != nil {
			return nil, err
		}
		asr, err := e.newAssessor(spec, uint64(s))
		if err != nil {
			return nil, err
		}
		st := stem.New(spec, store, asr, q.WindowTicks, run.Costs, e.clock)
		st.SetSlack(run.Profile.MaxDelay)
		e.stems = append(e.stems, st)
		e.meter.Register(fmt.Sprintf("state%d", s), st.MemBytes)
	}
	if run.ContentRouting {
		e.crt = router.NewContent(q.NumStreams(), 16, run.Explore, run.Seed+1)
	}
	e.meter.Register("queue", func() int { return e.queueBytes })
	return e, nil
}

// probeValue returns the value a probe into state j would use on its
// predicate with covered stream i (ok=false when they are not joined).
func (e *Engine) probeValue(comp *tuple.Composite, i, j int) (uint64, bool) {
	pos, ok := e.q.States[j].PosForPartner(i)
	if !ok {
		return 0, false
	}
	ja := e.q.States[j].JAS[pos]
	return uint64(comp.Parts[i].Attrs[ja.PartnerAttr]), true
}

// nextHop picks the next state for a composite via whichever router is
// active. States with no predicate toward the coverage are masked out —
// a cartesian hop would scan the whole state for nothing — unless nothing
// else remains (disconnected queries degrade to cross products, as SQL
// semantics require).
func (e *Engine) nextHop(comp *tuple.Composite) int {
	for i, st := range e.stems {
		e.lensBuf[i] = st.Len()
	}
	mask := comp.Done
	eligible := 0
	for j := range e.stems {
		if mask&(1<<uint(j)) != 0 {
			continue
		}
		if e.q.States[j].PatternForDone(comp.Done) == 0 {
			mask |= 1 << uint(j) // not joined to anything covered yet
		} else {
			eligible++
		}
	}
	if eligible == 0 {
		mask = comp.Done
	}
	if e.crt != nil {
		return e.crt.Next(mask, e.lensBuf, func(i, j int) (uint64, bool) {
			return e.probeValue(comp, i, j)
		})
	}
	return e.rt.Next(mask, e.lensBuf)
}

func (e *Engine) newStore(q *query.Query, spec *query.StateSpec) (storage.Store, error) {
	attrMap := make([]int, spec.NumAttrs())
	for i, ja := range spec.JAS {
		attrMap[i] = ja.Attr
	}
	switch e.sys.Index {
	case IndexBit:
		budget := e.run.BitBudget
		if e.run.AdaptiveBudget {
			// Size the initial directory from the expected steady state
			// (λ_d·W tuples); tuning re-sizes it as reality drifts.
			budget = adaptiveBudget(int(int64(e.run.Profile.LambdaD)*q.WindowTicks), e.run.BitBudget)
		}
		cfg := bitindex.Uniform(spec.NumAttrs(), budget)
		ix, err := bitindex.New(cfg, attrMap, nil, bitindex.WithDenseLimit(e.run.DenseLimit))
		if err != nil {
			return nil, err
		}
		return storage.NewBitStore(ix), nil
	case IndexHash:
		k := e.sys.HashIndexCount
		if k <= 0 {
			return nil, fmt.Errorf("engine: hash system needs at least 1 index, got %d", k)
		}
		// States with small join attribute sets (chain ends, star
		// satellites) cannot host more indices than they have patterns.
		if m := query.NumPatterns(spec.NumAttrs()); k > m {
			k = m
		}
		pats := defaultHashPatterns(spec.NumAttrs(), k)
		return hashindex.New(spec.NumAttrs(), attrMap, nil, pats)
	case IndexScan:
		return storage.NewScanStore(), nil
	default:
		return nil, fmt.Errorf("engine: unknown index kind %v", e.sys.Index)
	}
}

// defaultHashPatterns picks the k starting access modules: single attributes
// first, then pairs, then wider combinations — the natural priors before any
// statistics exist.
func defaultHashPatterns(numAttrs, k int) []query.Pattern {
	var pats []query.Pattern
	for level := 1; level <= numAttrs && len(pats) < k; level++ {
		query.AllPatterns(numAttrs, func(p query.Pattern) bool {
			if p.Count() == level {
				pats = append(pats, p)
			}
			return len(pats) < k
		})
	}
	return pats
}

func (e *Engine) newAssessor(spec *query.StateSpec, salt uint64) (assess.Assessor, error) {
	seed := e.run.Seed*1000003 + salt
	switch e.sys.Assess {
	case AssessNone:
		return nil, nil
	case AssessSRIA:
		return assess.NewSRIA(), nil
	case AssessDIA:
		return assess.NewDIA(), nil
	case AssessCSRIA:
		return assess.NewCSRIA(e.run.Epsilon)
	case AssessCDIARandom:
		return assess.NewCDIA(spec.NumAttrs(), e.run.Epsilon, hh.RollupRandom, seed)
	case AssessCDIAHighest:
		return assess.NewCDIA(spec.NumAttrs(), e.run.Epsilon, hh.RollupHighestCount, seed)
	default:
		return nil, fmt.Errorf("engine: unknown assess kind %v", e.sys.Assess)
	}
}

// Run executes the workload to the horizon or until the memory cap trips,
// returning the sampled throughput series.
func (e *Engine) Run() *metrics.RunResult {
	res := &metrics.RunResult{Name: e.sys.Name, End: metrics.EndCompleted}
	sample := func(tick int64) {
		used := e.meter.Used()
		if used > res.PeakMemBytes {
			res.PeakMemBytes = used
		}
		res.Points = append(res.Points, metrics.Point{
			Tick: tick, Results: e.results, MemBytes: used,
			Backlog: len(e.queue) - e.queueHead,
		})
	}

	var tick int64
	for tick = 0; tick < e.run.MaxTicks; tick++ {
		e.curTick = tick
		// 0. Re-exploration: routes are re-learned at the start of every
		// drift epoch, then the router settles down.
		if e.run.Profile.EpochTicks > 0 && e.run.ExploreBurst > 0 {
			rate := e.run.Explore
			if tick%e.run.Profile.EpochTicks < e.run.BurstTicks {
				rate = e.run.ExploreBurst
			}
			e.rt.SetExplore(rate)
			if e.crt != nil {
				e.crt.SetExplore(rate)
			}
		}

		// 1. Window expiry (mandatory maintenance, charged), plus one
		// bounded step of any in-flight incremental migration.
		for s, st := range e.stems {
			st.Expire(tick)
			if e.run.IncrementalMigration {
				if bs, ok := st.Store().(storage.BitStore); ok && bs.Migrating() {
					step := e.run.MigrateStepTuples
					if step <= 0 {
						step = 500
					}
					mst, done := bs.MigrateStep(step)
					e.clock.ChargeCat(sim.CatMaintain, sim.Units(mst.Hashes)*e.run.Costs.Hash+
						sim.Units(mst.Tuples)*e.run.Costs.Insert)
					if ctl := e.ctls[s]; ctl != nil {
						// Realized drain work feeds the controller's
						// predicted-vs-realized ledger and calibrates the
						// next migration price.
						ctl.RecordDrain(uint64(mst.Tuples), uint64(mst.Hashes), done)
					}
				}
			}
		}

		// 2. Arrivals enter the work queue.
		for _, t := range e.src.Tick(tick) {
			e.push(task{ingest: t})
		}

		// 3. Spend the tick's CPU grant; leftovers backlog. The grant is
		// cumulative and everything charged this tick (expiry above,
		// tuning below, migrations) already drew from it, so maintenance
		// overruns reduce the processing capacity of subsequent ticks.
		e.allowance += e.run.CPUBudget
		for e.clock.Spent() < e.allowance {
			tk, ok := e.pop()
			if !ok {
				break
			}
			e.process(tk)
		}

		// 4. Index tuning at the configured cadence.
		if tick+1 == e.run.WarmupTicks {
			e.tuneAll()
			e.warmupDone = true
			if !e.sys.Adaptive {
				// Non-adapting contenders freeze: no more statistics, no
				// more migrations — exactly the Figure 7 baselines.
				for _, st := range e.stems {
					st.Assessor = nil
				}
			}
		} else if e.warmupDone && e.sys.Adaptive && (tick+1-e.run.WarmupTicks)%e.run.AssessInterval == 0 {
			e.tuneAll()
		}

		// 5. Sample and check the memory cap.
		if tick%e.run.SampleEvery == 0 {
			sample(tick)
		}
		if e.meter.OverCap() {
			res.End = metrics.EndOOM
			break
		}
	}
	sample(tick)
	res.EndTick = tick
	res.TotalResults = e.results
	res.Probes = e.probes
	res.Retunes = e.retunes
	res.CostUnits = float64(e.clock.Spent())
	res.CostBreakdown = e.clock.Breakdown()
	res.Latency = metrics.SummarizeLatencies(e.latencies)
	var tsum tuner.Summary
	for _, ctl := range e.ctls {
		if ctl != nil {
			tsum.Add(ctl.Summary())
		}
	}
	res.Tuner = metrics.TunerSummary{
		Passes:           tsum.Passes,
		Migrations:       tsum.Migrations,
		CooldownHolds:    tsum.CooldownHolds,
		FlipFlopHolds:    tsum.FlipFlopHolds,
		Uneconomical:     tsum.Uneconomical,
		PredictedMigCost: tsum.PredictedMigCost,
		RealizedMigCost:  tsum.RealizedMigCost,
		Completed:        tsum.Completed,
		Aborted:          tsum.Aborted,
	}
	for s, st := range e.stems {
		switch store := st.Store().(type) {
		case storage.BitStore:
			res.FinalConfigs = append(res.FinalConfigs, fmt.Sprintf("S%d:%v", s, store.Config()))
		case *hashindex.Store:
			res.FinalConfigs = append(res.FinalConfigs, fmt.Sprintf("S%d:%s", s, store.String()))
		}
	}
	return res
}

func (e *Engine) push(t task) {
	e.queue = append(e.queue, t)
	e.queueBytes += t.memBytes()
}

func (e *Engine) pop() (task, bool) {
	if e.queueHead >= len(e.queue) {
		return task{}, false
	}
	t := e.queue[e.queueHead]
	e.queue[e.queueHead] = task{}
	e.queueHead++
	e.queueBytes -= t.memBytes()
	if e.queueHead > 4096 && e.queueHead*2 > len(e.queue) {
		e.queue = append([]task(nil), e.queue[e.queueHead:]...)
		e.queueHead = 0
	}
	return t, true
}

func (e *Engine) process(t task) {
	if t.ingest != nil {
		// Selection push-down: tuples failing a WHERE filter are dropped
		// before touching any state.
		if nf := e.q.FilterCount(t.ingest.Stream); nf > 0 {
			e.clock.ChargeCat(sim.CatSearch, sim.Units(nf)*e.run.Costs.Compare)
			if !e.q.Accepts(t.ingest) {
				return
			}
		}
		e.stems[t.ingest.Stream].Insert(t.ingest)
		e.push(task{comp: tuple.NewComposite(e.q.NumStreams(), t.ingest)})
		return
	}

	comp := t.comp
	next := e.nextHop(comp)
	e.clock.Charge(e.run.Costs.Route)
	if next < 0 {
		return
	}
	pr := e.stems[next].Probe(comp)
	e.probes++
	e.probesPerState[next]++

	// Clean single-predicate observations feed the router's estimates.
	if comp.Count() == 1 {
		src := bits.TrailingZeros32(comp.Done)
		if e.crt != nil {
			if v, ok := e.probeValue(comp, src, next); ok {
				e.crt.Observe(src, next, v, len(pr.Matches), e.stems[next].Len())
			}
		} else {
			e.rt.ObservePair(src, next, len(pr.Matches), e.stems[next].Len())
		}
	}

	for _, m := range pr.Matches {
		nc := comp.Extend(m)
		if nc.Complete(e.q.NumStreams()) {
			e.results++
			e.latencies = append(e.latencies, e.curTick-nc.Driver().TS)
			e.clock.Charge(e.run.Costs.Emit)
			if e.run.OnResult != nil {
				e.run.OnResult(nc, e.curTick)
			}
		} else {
			e.push(task{comp: nc})
		}
	}
}

// tuneAll runs one assessment + index selection pass over every state.
func (e *Engine) tuneAll() {
	interval := e.run.AssessInterval
	if !e.warmupDone {
		interval = e.run.WarmupTicks
	}
	for s, st := range e.stems {
		if st.Assessor == nil {
			continue
		}
		stats := st.Assessor.Results(e.run.Theta)
		lambdaR := float64(e.probesPerState[s]) / float64(interval)
		e.probesPerState[s] = 0
		if !e.run.CumulativeAssessment {
			st.Assessor.Reset()
		}
		if len(stats) == 0 {
			continue
		}
		params := cost2Params(e.run, lambdaR, float64(e.q.WindowTicks))

		switch store := st.Store().(type) {
		case storage.BitStore:
			if store.Migrating() {
				// Let the in-flight incremental migration finish before
				// considering another move.
				continue
			}
			budget := e.run.BitBudget
			if e.run.AdaptiveBudget {
				budget = adaptiveBudget(store.Len(), e.run.BitBudget)
			}
			ctl := e.ctls[s]
			if ctl == nil {
				ctl = e.newController(st.Spec)
				e.ctls[s] = ctl
			}
			ctl.SetParams(params)
			ctl.SetBudget(budget)
			pr, err := ctl.Propose(store.Config(), stats, store.Len())
			if err != nil {
				if e.tuneErr == nil {
					e.tuneErr = err
				}
				continue
			}
			if pr.Migrate() {
				if e.run.IncrementalMigration {
					if err := store.StartMigration(pr.To); err == nil {
						e.retunes++
					} else {
						ctl.RecordAbort()
					}
					continue
				}
				mst, err := store.Migrate(pr.To)
				if err == nil {
					e.clock.ChargeCat(sim.CatMaintain, sim.Units(mst.Hashes)*e.run.Costs.Hash+
						sim.Units(mst.Tuples)*e.run.Costs.Insert)
					e.retunes++
					ctl.RecordDrain(uint64(mst.Tuples), uint64(mst.Hashes), true)
				} else {
					ctl.RecordAbort()
				}
			}
		case *hashindex.Store:
			pats := topPatterns(stats, e.sys.HashIndexCount)
			if len(pats) > 0 && !samePatternSet(pats, store.IndexPatterns()) {
				rst, err := store.Retune(pats)
				if err == nil {
					e.clock.ChargeCat(sim.CatMaintain, sim.Units(rst.Hashes)*e.run.Costs.Hash+
						sim.Units(rst.KeyOps)*e.run.Costs.KeyMaint+
						sim.Units(rst.Tuples)*e.run.Costs.Insert)
					e.retunes++
				}
			}
		}
	}
}

// newController builds one state's long-lived retuning controller: a
// proposal migrates only when its modelled per-tick C_D gain over four
// assessment windows exceeds the predicted migration cost, with one pass of
// cooldown between applied migrations per state.
func (e *Engine) newController(spec *query.StateSpec) *tuner.Controller {
	ctl := &tuner.Controller{
		MinGain:       e.run.MinGain,
		UseExhaustive: spec.NumAttrs() <= 4 && e.run.BitBudget <= 16,
		Opt:           tuner.Options{MaxBitsPerAttr: e.domainCaps(spec)},
		Horizon:       4 * float64(e.run.AssessInterval),
		Cooldown:      1,
		DriftSense:    4,
	}
	if e.run.IncrementalMigration {
		// The simulator drains MigrateStepTuples per tick, and a tick is
		// the cost model's time unit.
		step := e.run.MigrateStepTuples
		if step <= 0 {
			step = 500
		}
		ctl.DrainRate = float64(step)
	}
	return ctl
}

// TuneErr reports the first optimizer misconfiguration a tuning pass hit
// (nil when none); such passes keep their configurations.
func (e *Engine) TuneErr() error { return e.tuneErr }

// adaptiveBudget sizes the IC to the state: enough bits that buckets hold a
// handful of tuples each (log2(len)+2), never more than the configured cap
// and never fewer than 4.
func adaptiveBudget(stateLen, maxBits int) int {
	b := 4
	for (1<<uint(b)) < stateLen*4 && b < maxBits {
		b++
	}
	return b
}

// domainCaps caps each attribute's bits at the log2 of the largest domain
// it can draw from — bits beyond an attribute's cardinality cannot spread
// tuples (the paper assumes ranges and distributions are known). Replayed
// traces have unknown domains: no caps then.
func (e *Engine) domainCaps(spec *query.StateSpec) []uint8 {
	if e.gen == nil {
		return nil
	}
	caps := make([]uint8, spec.NumAttrs())
	var maxDom uint64
	for _, d := range e.run.Profile.Domains {
		if d > maxDom {
			maxDom = d
		}
	}
	b := uint8(math.Ceil(math.Log2(float64(maxDom + 1))))
	for i := range caps {
		caps[i] = b
	}
	return caps
}

func cost2Params(run RunConfig, lambdaR, window float64) cost.Params {
	return cost.Params{
		LambdaD: float64(run.Profile.LambdaD),
		LambdaR: lambdaR,
		Ch:      float64(run.Costs.Hash),
		Cc:      float64(run.Costs.Compare),
		Window:  window,
	}
}

// topPatterns picks the k most frequent non-empty patterns — the paper's
// "conventional index selection" for the hash baseline.
func topPatterns(stats []cost.APStat, k int) []query.Pattern {
	var out []query.Pattern
	for _, s := range stats { // stats arrive sorted by descending frequency
		if s.P == 0 {
			continue
		}
		out = append(out, s.P)
		if len(out) == k {
			break
		}
	}
	return out
}

func samePatternSet(a []query.Pattern, b []query.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[query.Pattern]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if !set[p] {
			return false
		}
	}
	return true
}

// Results returns the cumulative join results so far (exposed for tests).
func (e *Engine) Results() uint64 { return e.results }
