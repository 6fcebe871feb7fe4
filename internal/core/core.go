// Package core assembles the paper's primary contribution — the Adaptive
// Multi-Route Index (AMRI) — into one embeddable component: a bit-address
// index whose configuration is continuously re-selected from compact
// access-pattern statistics. It glues together internal/bitindex (the
// physical design of Section III), internal/assess (the assessment methods
// of Section IV) and internal/tuner (index selection over the Equation 1
// cost model), and is the type the public amri package exposes.
//
// The engine in internal/engine drives the same machinery inside a full
// stream system; AdaptiveIndex exists so a downstream user can put an AMRI
// on any tuple store they like without adopting the whole engine.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"amri/internal/assess"
	"amri/internal/bitindex"
	"amri/internal/cost"
	"amri/internal/hh"
	"amri/internal/query"
	"amri/internal/tuner"
	"amri/internal/tuple"
)

// Method selects the assessment method watching the index.
type Method int

const (
	// MethodCDIAHighest compacts hierarchically, rolling into the
	// highest-count parent — the paper's best performer and the default.
	MethodCDIAHighest Method = iota
	// MethodCDIARandom compacts hierarchically, rolling into a random
	// lattice parent.
	MethodCDIARandom
	// MethodSRIA keeps exact counts for every observed pattern.
	MethodSRIA
	// MethodCSRIA compacts with lossy counting (drops sub-threshold mass).
	MethodCSRIA
	// MethodDIA is the lattice twin of SRIA (identical reports).
	MethodDIA
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodSRIA:
		return "SRIA"
	case MethodCSRIA:
		return "CSRIA"
	case MethodDIA:
		return "DIA"
	case MethodCDIARandom:
		return "CDIA-random"
	case MethodCDIAHighest:
		return "CDIA-highest"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configure an AdaptiveIndex.
type Options struct {
	// NumAttrs is the size of the state's join attribute set (required).
	NumAttrs int
	// AttrMap maps IC field i to the tuple attribute position it reads;
	// nil means the identity mapping.
	AttrMap []int
	// BitBudget is the total IC bits (default 12).
	BitBudget int
	// DenseLimit is the dense/sparse directory crossover in total bits
	// (default bitindex.DefaultDenseLimit).
	DenseLimit int
	// Method is the assessment method (default MethodCDIAHighest).
	Method Method
	// Theta is the heavy-hitter threshold (default 0.04), Epsilon the
	// error rate (default 0.005).
	Theta, Epsilon float64
	// AutoTuneEvery triggers a tuning pass after that many observed
	// search requests; 0 disables auto-tuning (call Tune yourself).
	AutoTuneEvery uint64
	// MinGain is the migration hysteresis (default 0.02).
	MinGain float64
	// MaxBitsPerAttr optionally caps per-attribute bits at the attribute's
	// cardinality.
	MaxBitsPerAttr []uint8
	// Hasher overrides the attribute hash (default bitindex.DefaultHasher).
	Hasher bitindex.Hasher
	// MigrateGate, when set, is consulted each time a tuning pass
	// proposes a migration. Returning false makes the index start the
	// incremental migration, advance it one bounded step, then roll it
	// back via AbortMigration — a fault mid-migration, after which the
	// old directory stays authoritative. The fault-injection harness
	// (internal/fault) uses it to force reproducible migration aborts.
	MigrateGate func() bool
	// Cost carries the workload rates for Equation 1. Leave it zero to
	// self-calibrate: the expected scan size is taken from the live state
	// size and the request rate from the observed request/insert ratio.
	Cost cost.Params
	// Seed fixes the random-combination RNG.
	Seed uint64
	// Shards, when positive, stripes the index's directory over that many
	// lock-striped sub-directories (a power of two, at most 256), and
	// tuning migrates incrementally — StartMigration plus bounded
	// MigrateStep advances on the insert path — so a retune never stops
	// the world. Zero keeps one stripe and the stop-the-world Migrate the
	// deterministic simulator relies on.
	Shards int
	// MigrateStepTuples bounds the incremental-migration work advanced
	// per insert while an incremental migration drains (default 64).
	MigrateStepTuples int

	autoCost bool
}

// The retune controller's fixed policy (see tuner.Controller): a proposal
// migrates only when its modelled C_D gain over the amortization horizon
// exceeds the predicted migration cost. The horizon itself is recomputed
// every tuning pass — four assessment windows, see tunePass.
const (
	// tuneCooldown is the minimum number of tuning passes between applied
	// migrations: one window of silence after a migration (sustained churn
	// is damped by the economics gate, not by deafness). Flipping back to
	// the configuration a migration just left is held for twice as long.
	tuneCooldown = 2
	// driftSense scales how strongly observed access-pattern churn shrinks
	// the amortization horizon.
	driftSense = 4
)

func (o *Options) fill() error {
	if o.NumAttrs <= 0 || o.NumAttrs > query.MaxAttrs {
		return fmt.Errorf("core: NumAttrs %d out of range", o.NumAttrs)
	}
	if o.AttrMap == nil {
		o.AttrMap = make([]int, o.NumAttrs)
		for i := range o.AttrMap {
			o.AttrMap[i] = i
		}
	}
	if len(o.AttrMap) != o.NumAttrs {
		return fmt.Errorf("core: AttrMap has %d entries, want %d", len(o.AttrMap), o.NumAttrs)
	}
	if o.BitBudget == 0 {
		o.BitBudget = 12
	}
	if o.BitBudget > bitindex.MaxTotalBits {
		// A budget past the bucket id is a misconfiguration the optimizer
		// would reject at every tuning pass; refuse it at construction.
		return fmt.Errorf("core: BitBudget %d exceeds the %d-bit bucket id", o.BitBudget, bitindex.MaxTotalBits)
	}
	if o.DenseLimit == 0 {
		o.DenseLimit = bitindex.DefaultDenseLimit
	}
	if o.Theta == 0 {
		o.Theta = 0.04
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.005
	}
	if o.MinGain == 0 {
		o.MinGain = 0.02
	}
	if o.Cost.LambdaD == 0 {
		o.autoCost = true
		o.Cost = cost.Params{LambdaD: 1, LambdaR: 1, Ch: 1, Cc: 0.25, Window: 1}
	}
	if o.MigrateStepTuples == 0 {
		o.MigrateStepTuples = 64
	}
	return nil
}

// AdaptiveIndex is a self-tuning bit-address index for one state. It is
// safe for concurrent use: index operations run on the lock-striped index,
// while the assessor and the bookkeeping counters — which have no internal
// synchronization — are guarded by mu. The guarded critical sections never
// enclose an index operation, so concurrent probes only serialize on the
// (cheap) statistics update.
type AdaptiveIndex struct {
	opts        Options
	ix          *bitindex.Index
	incremental bool // Options.Shards > 0: tuning migrates via MigrateStep

	// ctl is the long-lived retuning controller: cooldown, drift and
	// migration-cost calibration state live across tuning passes, and its
	// what-if ledger records every proposal. It has its own lock and is
	// never called with mu held.
	ctl *tuner.Controller

	// inserts is atomic (not mu-guarded) so the insert path never takes the
	// statistics mutex. Padded onto its own cache line: the state's ingest
	// goroutine increments it while probe workers take mu, and sharing the
	// line would ping-pong it between cores.
	inserts atomic.Uint64
	_       [64]byte

	mu        sync.Mutex
	asr       assess.Assessor
	requests  uint64
	sinceTune uint64
	retunes   int
	aborted   int
	tuning    bool // claimed by the goroutine running a tuning pass
	tuneErr   error
}

// New builds an AdaptiveIndex with a uniform starting configuration.
func New(opts Options) (*AdaptiveIndex, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ix, err := bitindex.NewSharded(bitindex.Uniform(opts.NumAttrs, opts.BitBudget), opts.AttrMap,
		opts.Hasher, max(1, opts.Shards), bitindex.WithDenseLimit(opts.DenseLimit))
	if err != nil {
		return nil, err
	}
	var asr assess.Assessor
	switch opts.Method {
	case MethodSRIA:
		asr = assess.NewSRIA()
	case MethodDIA:
		asr = assess.NewDIA()
	case MethodCSRIA:
		asr, err = assess.NewCSRIA(opts.Epsilon)
	case MethodCDIARandom:
		asr, err = assess.NewCDIA(opts.NumAttrs, opts.Epsilon, hh.RollupRandom, opts.Seed)
	case MethodCDIAHighest:
		asr, err = assess.NewCDIA(opts.NumAttrs, opts.Epsilon, hh.RollupHighestCount, opts.Seed)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	if err != nil {
		return nil, err
	}
	a := &AdaptiveIndex{opts: opts, ix: ix, incremental: opts.Shards > 0}
	// An incremental migration drains MigrateStepTuples per insert, i.e.
	// step·λ_d tuples per time unit; a stop-the-world Migrate has no
	// dual-directory drain window.
	var drainRate float64
	if a.incremental {
		drainRate = float64(opts.MigrateStepTuples) * opts.Cost.LambdaD
	}
	a.ctl = &tuner.Controller{
		Params:        opts.Cost,
		Budget:        opts.BitBudget,
		MinGain:       opts.MinGain,
		UseExhaustive: opts.NumAttrs <= 4 && opts.BitBudget <= 16,
		Opt:           tuner.Options{MaxBitsPerAttr: opts.MaxBitsPerAttr},
		Cooldown:      tuneCooldown,
		DriftSense:    driftSense,
		DrainRate:     drainRate,
	}
	a.mu.Lock()
	a.asr = asr
	a.mu.Unlock()
	return a, nil
}

// Insert stores a tuple. While an incremental migration is draining (the
// retune path with Options.Shards set) each insert also advances the drain
// by a bounded step, so migration work is paid on the maintenance path the
// paper's C_dt term prices, never as one stop-the-world stall.
func (a *AdaptiveIndex) Insert(t *tuple.Tuple) bitindex.Stats {
	a.inserts.Add(1)
	st := a.ix.Insert(t)
	if a.incremental && a.ix.Migrating() {
		mst, done := a.ix.MigrateStep(a.opts.MigrateStepTuples)
		st.Add(mst)
		// Feed the realized drain work back to the controller: the what-if
		// ledger gets its predicted-vs-realized row and the next migration
		// price is calibrated from observed per-tuple cost.
		a.ctl.RecordDrain(uint64(mst.Tuples), uint64(mst.Hashes), done)
	}
	return st
}

// Delete removes a stored tuple (pointer identity).
func (a *AdaptiveIndex) Delete(t *tuple.Tuple) (bitindex.Stats, bool) {
	return a.ix.Delete(t)
}

// Search executes one search request: the access pattern is recorded by the
// assessor, the matching bucket span is scanned, and — when auto-tuning is
// enabled — a tuning pass runs once enough requests have been observed.
// Visited tuples are bucket candidates; the caller applies its predicates.
//
//amrivet:hotpath per-probe adaptive search entry point
func (a *AdaptiveIndex) Search(p query.Pattern, vals []tuple.Value, visit func(*tuple.Tuple) bool) bitindex.Stats {
	due := a.ObserveSearches(p, 1)
	st := a.ix.Search(p, vals, visit)
	if due {
		a.TuneClaimed()
	}
	return st
}

// SearchMatch executes the index scan of one probe with the candidate
// filter applied inline and WITHOUT touching the assessor or the tuning
// counters: no mutex, no per-probe closure, survivors appended to the
// caller-owned out slice. It exists for dispatchers that batch their
// statistics — record the probes afterwards with ObserveSearches and run a
// due pass via TuneClaimed. Stats are identical to Search's, so the cost
// model sees the same work either way.
//
//amrivet:hotpath lock-free per-probe scan for the batched dispatch path
func (a *AdaptiveIndex) SearchMatch(p query.Pattern, vals []tuple.Value, m *bitindex.Matcher, ss *bitindex.SearchScratch, out []*tuple.Tuple) (bitindex.Stats, []*tuple.Tuple) {
	return a.ix.SearchMatch(p, vals, m, ss, out)
}

// ObserveSearches records n search requests with access pattern p — the
// deferred statistics half of n SearchMatch calls — under one statistics
// lock instead of n. It returns true when the observations make a tuning
// pass due AND the call claimed it: the caller must then invoke TuneClaimed
// (exactly once) to run the pass. Callers that batch per tick flush
// op-major in a deterministic order, which makes the tuning schedule
// reproducible across worker counts.
func (a *AdaptiveIndex) ObserveSearches(p query.Pattern, n uint64) (due bool) {
	if n == 0 {
		return false
	}
	a.mu.Lock()
	for i := uint64(0); i < n; i++ {
		a.asr.Observe(p)
	}
	a.requests += n
	a.sinceTune += n
	due = a.opts.AutoTuneEvery > 0 && a.sinceTune >= a.opts.AutoTuneEvery && !a.tuning
	if due {
		a.tuning = true
	}
	a.mu.Unlock()
	return due
}

// TuneClaimed runs the tuning pass a true ObserveSearches return claimed.
// Calling it without holding a claim corrupts the tuning flag; it is the
// pairing of the two methods that keeps Tune's single-flight guarantee.
func (a *AdaptiveIndex) TuneClaimed() (migrated bool, active bitindex.Config) {
	return a.tunePass()
}

// Tune runs one assessment + index-selection pass, migrating the index when
// the modelled improvement clears the hysteresis. It reports whether a
// migration happened and the now-active configuration, and resets the
// assessment window. If another goroutine is already tuning, Tune is a
// no-op.
func (a *AdaptiveIndex) Tune() (migrated bool, active bitindex.Config) {
	a.mu.Lock()
	if a.tuning {
		a.mu.Unlock()
		return false, a.ix.Config()
	}
	a.tuning = true
	a.mu.Unlock()
	return a.tunePass()
}

// tunePass is the body of a tuning pass; the caller must have claimed the
// tuning flag. The assessment snapshot and the counter updates run under
// mu, the index-selection search and any migration run outside it so
// concurrent probes are never blocked on the tuner.
//
//amrivet:coldpath tuning pass, runs once per assessment window
func (a *AdaptiveIndex) tunePass() (migrated bool, active bitindex.Config) {
	a.mu.Lock()
	stats := a.asr.Results(a.opts.Theta)
	params := a.opts.Cost
	requests, inserts := a.requests, a.inserts.Load()
	a.asr.Reset()
	a.sinceTune = 0
	a.mu.Unlock()
	if a.opts.autoCost {
		// Self-calibrate Eq. 1: the expected scan LambdaD·Window is the
		// observed state size, and the request rate is relative to the
		// insert rate seen so far.
		params.Window = float64(max(1, a.ix.Len()))
		if inserts > 0 {
			params.LambdaR = params.LambdaD * float64(requests) / float64(inserts)
		}
	}
	aborts := 0
	var passErr error
	// Skip the pass while a previous incremental migration is still
	// draining: a second StartMigration would fail anyway, and proposing
	// on top of an in-flight drain would clobber the controller's
	// predicted-vs-realized accounting. The window's statistics were
	// consumed; the next window re-evaluates on fresh ones.
	if !(a.incremental && a.ix.Migrating()) {
		if params.LambdaR > 0 {
			// The migration amortization horizon is four assessment
			// windows, converted from the probe-counted cadence to model
			// time units (inserts) through the request rate this pass was
			// calibrated with.
			base := a.opts.AutoTuneEvery
			if base == 0 {
				base = 1024
			}
			a.ctl.SetHorizon(4 * float64(base) / params.LambdaR)
		}
		a.ctl.SetParams(params)
		pr, err := a.ctl.Propose(a.ix.Config(), stats, a.ix.Len())
		switch {
		case err != nil:
			passErr = err
		case !pr.Migrate():
		case a.opts.MigrateGate != nil && !a.opts.MigrateGate():
			// Injected fault mid-migration: run the real incremental
			// machinery a bounded step in, then roll it back, so the abort
			// path exercised here is the one production recovery relies on.
			if err := a.ix.StartMigration(pr.To); err == nil {
				a.ix.MigrateStep(a.opts.MigrateStepTuples)
				a.ix.AbortMigration()
			}
			a.ctl.RecordAbort()
			aborts = 1
		case a.incremental:
			// Begin an incremental migration and let the insert path drain
			// it in bounded steps — retuning never stops the world.
			if err := a.ix.StartMigration(pr.To); err == nil {
				migrated = true
			} else {
				a.ctl.RecordAbort()
			}
		default:
			if mst, err := a.ix.Migrate(pr.To); err == nil {
				migrated = true
				a.ctl.RecordDrain(uint64(mst.Tuples), uint64(mst.Hashes), true)
			} else {
				a.ctl.RecordAbort()
			}
		}
	}
	a.mu.Lock()
	a.aborted += aborts
	if migrated {
		a.retunes++
	}
	if passErr != nil && a.tuneErr == nil {
		a.tuneErr = passErr
	}
	a.tuning = false
	a.mu.Unlock()
	return migrated, a.ix.Config()
}

// ShedAssessment drops the assessor's accumulated statistics and restarts
// the tuning window — the degradation response to memory pressure: the
// statistics are reconstructible, stored tuples are not.
func (a *AdaptiveIndex) ShedAssessment() {
	a.mu.Lock()
	a.asr.Reset()
	a.sinceTune = 0
	a.mu.Unlock()
}

// Config returns the active index configuration.
func (a *AdaptiveIndex) Config() bitindex.Config { return a.ix.Config() }

// ForceConfig migrates the index straight to cfg, bypassing the tuner, the
// hysteresis and the MigrateGate fault hook, and without counting a retune.
// It exists for crash recovery: a rebuilt index must come back under the
// configuration the tuner had reached — re-imposing persisted state, not
// making a new tuning decision, so no fault-injection event is consumed and
// the injector's schedule stays aligned with the pre-crash run.
func (a *AdaptiveIndex) ForceConfig(cfg bitindex.Config) error {
	if cfg.Equal(a.ix.Config()) {
		return nil
	}
	_, err := a.ix.Migrate(cfg)
	return err
}

// Len returns the number of stored tuples.
func (a *AdaptiveIndex) Len() int { return a.ix.Len() }

// Migrating reports whether an incremental migration is draining.
func (a *AdaptiveIndex) Migrating() bool { return a.ix.Migrating() }

// MemBytes returns the simulated resident size (index + statistics).
func (a *AdaptiveIndex) MemBytes() int {
	a.mu.Lock()
	sb := a.asr.MemBytes()
	a.mu.Unlock()
	return a.ix.MemBytes() + sb
}

// Requests returns the number of search requests observed.
func (a *AdaptiveIndex) Requests() uint64 {
	a.mu.Lock()
	n := a.requests
	a.mu.Unlock()
	return n
}

// Retunes returns the number of migrations performed.
func (a *AdaptiveIndex) Retunes() int {
	a.mu.Lock()
	n := a.retunes
	a.mu.Unlock()
	return n
}

// MigrationAborts returns the number of migrations rolled back by the
// MigrateGate fault hook.
func (a *AdaptiveIndex) MigrationAborts() int {
	a.mu.Lock()
	n := a.aborted
	a.mu.Unlock()
	return n
}

// TunerSummary returns the retuning controller's running decision counters
// (passes, migrations, thrash holds, predicted vs realized migration cost).
func (a *AdaptiveIndex) TunerSummary() tuner.Summary { return a.ctl.Summary() }

// TunerLedger returns a copy of the controller's retained what-if entries,
// oldest first.
func (a *AdaptiveIndex) TunerLedger() []tuner.Proposal { return a.ctl.Ledger() }

// TuneErr returns the first optimizer misconfiguration a tuning pass hit
// (nil when none): such passes keep the current configuration but no longer
// silently degrade to greedy, so the error is worth surfacing.
func (a *AdaptiveIndex) TuneErr() error {
	a.mu.Lock()
	err := a.tuneErr
	a.mu.Unlock()
	return err
}

// Method returns the active assessment method's name.
func (a *AdaptiveIndex) Method() string {
	a.mu.Lock()
	name := a.asr.Name()
	a.mu.Unlock()
	return name
}

// Stats exposes the assessor's current report (for inspection and demos).
func (a *AdaptiveIndex) Stats() []cost.APStat {
	a.mu.Lock()
	st := a.asr.Results(a.opts.Theta)
	a.mu.Unlock()
	return st
}

// String summarizes the adaptive index.
func (a *AdaptiveIndex) String() string {
	a.mu.Lock()
	name := a.asr.Name()
	retunes := a.retunes
	a.mu.Unlock()
	return fmt.Sprintf("AMRI{%v, %s, %d tuples, %d retunes}",
		a.ix.Config(), name, a.ix.Len(), retunes)
}
