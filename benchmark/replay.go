package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"time"

	"amri/internal/bitindex"
	"amri/internal/core"
	"amri/internal/query"
	"amri/internal/router"
	"amri/internal/stream"
	"amri/internal/tuple"
	"amri/internal/window"
)

// replayResult is what one run of the replay driver produced.
type replayResult struct {
	digest  digest
	wall    time.Duration
	tuples  uint64
	probes  uint64
	matches uint64
	search  bitindex.Stats // summed over every probe

	decisions, explored uint64
	retunes             int
	// memBytes and stateLen are summed over the states after the last tick.
	memBytes, stateLen int

	// Inputs recorded for the isolated (I) measurements: state 0's access
	// patterns in the order its assessor saw them, and its final contents.
	patterns []patCount
	state0   []*tuple.Tuple
}

// patCount is one barrier flush into state 0's assessor: n observations of
// pattern pat.
type patCount struct {
	pat query.Pattern
	n   uint64
}

type probeJob struct {
	op   int
	comp *tuple.Composite
}

type routerObs struct {
	i, j, matches, stateLen int
}

// replay runs the job single-threaded by composing the layers' exported API
// in the order pipeline.execute uses them, with the same two-phase tick (all
// of a tick's inserts, then all of its probes, then the barrier merge), so
// its result set equals the pipeline's. Run with a nil tracer it is the
// reference digest and the single-threaded baseline of the same job; run
// with a tracer it wraps each layer call in a span.
func replay(w workload, seed uint64, ticks int64, tr *tracer) (*replayResult, error) {
	start := time.Now()
	q := w.query()
	n := q.NumStreams()
	gen, err := stream.New(q, w.profile, seed)
	if err != nil {
		return nil, err
	}
	ixs := make([]*core.AdaptiveIndex, n)
	rets := make([]*window.Buckets, n)
	maxAttrs := 0
	for s, spec := range q.States {
		attrMap := make([]int, spec.NumAttrs())
		for i, ja := range spec.JAS {
			attrMap[i] = ja.Attr
		}
		ixs[s], err = core.New(core.Options{
			NumAttrs:      spec.NumAttrs(),
			AttrMap:       attrMap,
			BitBudget:     cfgBitBudget,
			Method:        core.MethodCDIAHighest,
			AutoTuneEvery: cfgAutoTuneEvery,
			Seed:          seed + uint64(s),
			Shards:        cfgShards,
		})
		if err != nil {
			return nil, err
		}
		rets[s] = window.New(q.WindowTicks, w.profile.MaxDelay)
		maxAttrs = max(maxAttrs, spec.NumAttrs())
	}
	if maxAttrs > 8 {
		return nil, fmt.Errorf("replay: %d join attributes per state is more than the observation table covers", maxAttrs)
	}
	patSpace := 1 << uint(maxAttrs)
	rt := router.New(n, cfgExplore, seed+99)
	rng := rand.New(rand.NewPCG(seed+199, seed^0x85ebca6b))

	res := &replayResult{}
	var (
		lens     = make([]int, n)
		obs      = make([]uint64, n*patSpace)
		draining = make([]bool, n)
		vals     = make([]tuple.Value, maxAttrs)
		m        bitindex.Matcher
		ss       bitindex.SearchScratch
		matches  []*tuple.Tuple
		ext      []*tuple.Composite
		jobs     []probeJob
		robs     []routerObs
		expired  []*tuple.Tuple
		due      []int
	)
	collect := func(old *tuple.Tuple) { expired = append(expired, old) }
	var tickDec, tickExp uint64
	route := func(comps []*tuple.Composite) {
		for _, c := range comps {
			next, explored := rt.NextWith(c.Done, lens, rng)
			tickDec++
			if explored {
				tickExp++
			}
			if next >= 0 {
				jobs = append(jobs, probeJob{op: next, comp: c})
			}
		}
		tr.lap(slotRouterNext, len(comps))
	}

	for tick := int64(0); tick < ticks; tick++ {
		tr.open(slotTick)
		batch := gen.Tick(tick)
		tr.lap(slotStreamTick, 1)
		res.tuples += uint64(len(batch))

		// Phase 1: every arrival of the tick is inserted before any probes.
		tr.open(slotIngest)
		for _, t := range batch {
			ix, ret := ixs[t.Stream], rets[t.Stream]
			ix.Insert(t)
			d := tr.lap(slotInsert, 1)
			if draining[t.Stream] {
				// The insert also advanced an incremental migration.
				tr.insertWhileMigrating(d)
				draining[t.Stream] = ix.Migrating()
			}
			ret.Add(t)
			tr.lap(slotWindowAdd, 1)
			expired = expired[:0]
			ret.Expire(t.TS, collect)
			tr.lap(slotWindowExpire, 1)
			if len(expired) > 0 {
				for _, old := range expired {
					ix.Delete(old)
				}
				tr.lap(slotDelete, len(expired))
			}
		}
		tr.close(slotIngest)

		// Phase 2: one root composite per arrival, cascaded to completion.
		// State sizes only change in phase 1, so one snapshot serves every
		// routing decision of the tick.
		tr.open(slotProbe)
		for i, ix := range ixs {
			lens[i] = ix.Len()
		}
		ext = ext[:0]
		for _, t := range batch {
			ext = append(ext, tuple.NewComposite(n, t))
		}
		tr.lap(slotProbe, 0)
		route(ext)
		for len(jobs) > 0 {
			j := jobs[len(jobs)-1]
			jobs = jobs[:len(jobs)-1]
			spec := q.States[j.op]
			pt := spec.PatternForDone(j.comp.Done)
			m.NEq = 0
			for i, ja := range spec.JAS {
				if pt.Has(i) {
					v := j.comp.Parts[ja.Partner].Attrs[ja.PartnerAttr]
					vals[i] = v
					m.EqAttr[m.NEq], m.EqVal[m.NEq] = ja.Attr, v
					m.NEq++
				} else {
					vals[i] = 0
				}
			}
			drv := j.comp.Driver()
			m.Driver, m.MinTS = drv.Arrival, drv.TS-q.WindowTicks
			tr.lap(slotProbe, 0)
			var st bitindex.Stats
			st, matches = ixs[j.op].SearchMatch(pt, vals[:spec.NumAttrs()], &m, &ss, matches[:0])
			tr.searchDone(tr.lap(slotSearch, 1), spec.NumAttrs()-pt.Count())
			res.probes++
			res.matches += uint64(len(matches))
			res.search.Add(st)
			obs[j.op*patSpace+int(pt)]++
			if bits.OnesCount32(j.comp.Done) == 1 {
				robs = append(robs, routerObs{i: bits.TrailingZeros32(j.comp.Done), j: j.op, matches: len(matches), stateLen: lens[j.op]})
			}
			if len(matches) == 0 {
				continue
			}
			ext = ext[:0]
			for _, x := range matches {
				ext = append(ext, j.comp.Extend(x))
			}
			tr.lap(slotExtend, len(matches))
			// Every extension of one probe covers the same streams, so they
			// are all complete or all to be routed on.
			if ext[0].Complete(n) {
				for _, c := range ext {
					res.digest.add(c)
				}
				continue
			}
			route(ext)
		}
		tr.close(slotProbe)

		// Barrier: the statistics the probes deferred, in the canonical
		// order the pipeline's flushWorkers uses.
		tr.open(slotBarrier)
		sort.Slice(robs, func(a, b int) bool {
			x, y := robs[a], robs[b]
			if x.i != y.i {
				return x.i < y.i
			}
			if x.j != y.j {
				return x.j < y.j
			}
			if x.matches != y.matches {
				return x.matches < y.matches
			}
			return x.stateLen < y.stateLen
		})
		tr.lap(slotBarrier, 0)
		rt.RecordDecisions(tickDec, tickExp)
		res.decisions += tickDec
		res.explored += tickExp
		tickDec, tickExp = 0, 0
		for _, ro := range robs {
			rt.ObservePair(ro.i, ro.j, ro.matches, ro.stateLen)
		}
		tr.lap(slotRouterObserve, len(robs))
		robs = robs[:0]
		due = due[:0]
		for op, ix := range ixs {
			for pat := 0; pat < patSpace; pat++ {
				total := obs[op*patSpace+pat]
				if total == 0 {
					continue
				}
				obs[op*patSpace+pat] = 0
				if op == 0 && tr != nil {
					res.patterns = append(res.patterns, patCount{pat: query.Pattern(pat), n: total})
				}
				tr.lap(slotBarrier, 0)
				if ix.ObserveSearches(query.Pattern(pat), total) {
					due = append(due, op)
				}
				tr.lap(slotCoreObserve, 1)
			}
		}
		for _, op := range due {
			tr.lap(slotBarrier, 0)
			if migrated, _ := ixs[op].TuneClaimed(); migrated {
				draining[op] = true
			}
			tr.lap(slotCoreTune, 1)
		}
		tr.close(slotBarrier)
		tr.endTick()
	}
	tr.finish()
	res.wall = time.Since(start)

	for _, ix := range ixs {
		if err := ix.TuneErr(); err != nil {
			return nil, fmt.Errorf("replay: tuning pass failed: %w", err)
		}
		res.retunes += ix.Retunes()
		res.memBytes += ix.MemBytes()
		res.stateLen += ix.Len()
	}
	if tr != nil {
		rets[0].EachOrdered(func(t *tuple.Tuple) { res.state0 = append(res.state0, t) })
	}
	return res, nil
}
