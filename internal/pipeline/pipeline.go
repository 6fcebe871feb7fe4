package pipeline

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amri/internal/bitindex"
	"amri/internal/core"
	"amri/internal/fault"
	"amri/internal/query"
	"amri/internal/router"
	"amri/internal/storage"
	"amri/internal/stream"
	"amri/internal/tuner"
	"amri/internal/tuple"
	"amri/internal/window"
)

// Config describes one concurrent run.
type Config struct {
	// Query is the SPJ query; nil means the paper's 4-way join.
	Query *query.Query
	// Profile is the synthetic workload; zero value means DriftProfile.
	Profile stream.Profile
	// Seed fixes the workload and routing randomness.
	Seed uint64
	// Ticks is how many workload ticks to generate and process.
	Ticks int64
	// Method is the assessment method for every state's AdaptiveIndex.
	Method core.Method
	// BitBudget is the IC bits per state (default 12).
	BitBudget int
	// AutoTuneEvery retunes a state after that many probes. 0 means the
	// default, 2000; there is no off value — to run without live tuning
	// pass a cadence no run reaches (the determinism tests use 1 << 62).
	AutoTuneEvery uint64
	// Explore is the router's suboptimal-route probability.
	Explore float64

	// ProbeWorkers sizes the shared probe worker pool: every operator's
	// probe jobs fan out over this many goroutines and their deques, while
	// ingests stay on each operator's own serve goroutine (default
	// runtime.NumCPU()). The result set is identical at any worker count;
	// see the determinism tests.
	ProbeWorkers int
	// Shards, when positive, lock-stripes every operator's bit-index over
	// that many sub-directories (a power of two, at most 256), so probes
	// of the same state that touch distinct stripes overlap, and retune
	// migrations drain incrementally instead of stopping the world. Zero
	// keeps one stripe and stop-the-world migrations. Either way probes
	// take no operator lock (each pins the live index epoch with one
	// atomic load).
	Shards int
	// DispatchBatch is the dispatch hand-off grain: the source and
	// the workers move probe jobs between deques in chunks of this many
	// (default 64), so the dispatch pays one lock acquisition per batch
	// instead of one channel operation per composite. The digest is
	// identical at any batch size; see the determinism tests.
	DispatchBatch int

	// MailboxCap bounds every operator mailbox to that many queued
	// messages (0 = unbounded, the pre-fault-tolerance behaviour).
	MailboxCap int
	// ShedPolicy is the overload response of a full mailbox (default
	// PolicyBlock: backpressure on the source).
	ShedPolicy OverloadPolicy
	// Fault is the seeded fault-injection plan; fault.None (the zero
	// value) injects nothing.
	Fault fault.Plan
	// CheckpointEvery snapshots an operator's retained tuples after that
	// many inserts, bounding replay loss after a panic (default 256; -1
	// disables checkpointing, so a restart loses the whole state).
	CheckpointEvery int
	// MaxRestarts is how many times the supervisor restarts a panicking
	// operator before declaring it permanently failed (default 3).
	MaxRestarts int
	// MaxRestartWindow is the supervisor's wall budget in simulated ticks:
	// an operator that keeps panicking continuously for this many ticks is
	// declared permanently failed even with MaxRestarts remaining — a
	// flapping operator must convert to a verdict by elapsed time too, not
	// only by count. A healthy stretch longer than the window re-arms the
	// budget. Zero disables the wall budget (count-only, the old policy).
	MaxRestartWindow int64
	// RestartBackoff is the supervisor's initial restart delay, doubled
	// per consecutive restart and capped at 8x (default 1ms).
	RestartBackoff time.Duration
	// Durable, when non-nil, turns on crash durability: every applied
	// arrival is appended to this store's WAL, operator checkpoints are
	// persisted (serialized retained tuples + index config + applied
	// count), and each completed tick writes a tick record (run counters +
	// injector snapshot) followed by a store Sync. A run killed at a tick
	// boundary is then resumed by Recover with nothing lost: replay =
	// checkpoint + WAL suffix. Durability also makes supervisor restarts
	// lossless — the since-checkpoint tail is retained and replayed, so
	// StateLost stays zero. Nil (the default) keeps the in-memory-only
	// behaviour.
	Durable storage.CheckpointStore
	// OnResult, when set, receives every complete join result. It is
	// called concurrently from operator goroutines and must be
	// goroutine-safe.
	OnResult func(*tuple.Composite)
	// OnTickEnd, when set, is called from the source goroutine after each
	// tick's both phases have quiesced (and any durable tick record is
	// synced) — the per-tick latency probe point benchmark/ reads its tick
	// percentiles from.
	OnTickEnd func(tick int64)
}

// Result summarizes a concurrent run.
type Result struct {
	// Results is the number of complete join results emitted.
	Results uint64
	// Probes is the number of search requests executed.
	Probes uint64
	// Retunes is the number of index migrations across all states.
	Retunes int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
	// TuplesIngested counts the arrivals processed.
	TuplesIngested uint64

	// Sheds counts messages dropped before handling, summed over
	// operators: mailbox-overload drops, injected saturation, and the
	// backlog of permanently failed operators.
	Sheds uint64
	// ShedsPerOp is Sheds broken down by operator.
	ShedsPerOp []uint64
	// IngestShed / ProbeShed split Sheds by message kind.
	IngestShed uint64
	ProbeShed  uint64
	// IngestLost / ProbeLost count in-flight messages abandoned by
	// operator panics (the message being handled when the panic hit).
	IngestLost uint64
	ProbeLost  uint64
	// Restarts is how many times supervisors restarted an operator from
	// its checkpoint.
	Restarts int
	// PermanentFailures counts operators that exhausted MaxRestarts.
	PermanentFailures int
	// Replayed is the number of checkpointed tuples re-inserted across
	// all restarts; StateLost the number of tuples inserted after the
	// last checkpoint and therefore unrecoverable.
	Replayed  uint64
	StateLost uint64
	// MigrationAborts counts index migrations rolled back by injected
	// mid-migration faults.
	MigrationAborts int
	// Tuner aggregates the retune controllers' what-if accounting across
	// all operators (and restart incarnations): passes, migrations, holds,
	// predicted vs realized migration cost.
	Tuner tuner.Summary
	// InjectedDelays and PressureEvents count the timing-only fault
	// classes that fired.
	InjectedDelays uint64
	PressureEvents uint64

	// Crashed reports that the run stopped at a scheduled crash point
	// (Fault.CrashTicks) instead of completing; CrashTick is the last tick
	// fully processed and made durable before the kill. Call Recover with
	// the same Config to resume at CrashTick+1.
	Crashed   bool
	CrashTick int64
	// ResumedTick is the first tick this run segment processed: 0 for Run,
	// the crash point + 1 for Recover.
	ResumedTick int64
	// Recovered is how many tuples this segment's whole-run recovery
	// re-inserted from the durable store (checkpoints + WAL suffixes). It
	// counts only this segment's rebuild, unlike the cumulative counters
	// above, which continue the crashed run's totals.
	Recovered uint64
}

// message is one unit of operator work: an arrival for the operator's state.
type message struct {
	ingest *tuple.Tuple
	// doPanic pre-decides the OperatorPanic fault at delivery time: one
	// injector decision per surviving ingest, in arrival order, on the source
	// goroutine — so the per-(kind, actor) fault schedule does not depend on
	// when the operator gets to the message.
	doPanic bool
}

// operator is one STeM running as a goroutine: it owns its state's
// AdaptiveIndex, plus the checkpoint its supervisor restarts it from after
// a panic. Ingests, expiry and restores hold mu exclusively. Probes never
// take it: they pin the live incarnation through cur and are safe all the
// way down the lock-striped directory, at every stripe count.
type operator struct {
	id        int
	spec      *query.StateSpec
	mb        *mailbox[message]
	ckptEvery int
	window    int64 // event-time window, immutable after construction
	// newIx / newRetained rebuild the operator's state from scratch on a
	// supervisor restart.
	newIx       func() (*core.AdaptiveIndex, error)
	newRetained func() *window.Buckets

	// cur is the epoch pointer the lock-free probe path reads: it always
	// names the operator's live index incarnation, and is republished by
	// rebuildLocked. Padded onto its own cache line — every probe worker
	// loads it, so it must not share a line with mu.
	cur atomic.Pointer[core.AdaptiveIndex]
	_   [56]byte

	durable bool // a CheckpointStore backs this operator (Config.Durable)

	mu       sync.RWMutex
	ix       *core.AdaptiveIndex
	retained *window.Buckets
	// checkpoint is the retained-tuple snapshot a restart replays;
	// sinceCkpt counts inserts not yet covered by it.
	checkpoint  []*tuple.Tuple
	sinceCkpt   int
	retunesBase int // retunes from pre-restart incarnations
	abortsBase  int // migration aborts from pre-restart incarnations
	// tunerBase accumulates pre-restart incarnations' controller summaries
	// (controller state itself is advisory and restarts fresh).
	tunerBase tuner.Summary
	// applied is the total arrivals this operator has applied across all
	// incarnations — the WAL cursor: a durable checkpoint stores it so
	// recovery knows where this op's WAL suffix begins. tail mirrors that
	// suffix in memory (durable mode only): the tuples inserted since the
	// last checkpoint, replayed by a supervisor restore so nothing is lost.
	applied uint64
	tail    []*tuple.Tuple

	// Routed length, probe count and the failure flag are written from
	// different goroutine contexts (supervisors mutate length on ingest,
	// probe workers bump probes and length, supervisors raise failed), so
	// each lives on its own cache line. restarts is written only by the
	// supervisor but read by the source goroutine when it builds a tick
	// record, hence atomic (it shares a line with supervisor-local state,
	// which is fine — the writers are one goroutine).
	length   padInt64
	probes   padUint64
	failed   padBool
	restarts atomic.Int64

	// inflight is supervisor-goroutine-local: the message being handled, so
	// a panic's recover can release it.
	inflight message
}

// padUint64, padInt64 and padBool are atomic cells padded to a full cache
// line. The pipeline's counters are bumped concurrently from supervisors,
// probe workers and the source goroutine; padding keeps one writer's
// traffic from invalidating an unrelated neighbour's line (false sharing —
// see DESIGN.md §9 and the falseshare analyzer that enforces this).
type padUint64 struct {
	atomic.Uint64
	_ [56]byte
}

type padInt64 struct {
	atomic.Int64
	_ [56]byte
}

type padBool struct {
	atomic.Bool
	_ [60]byte
}

// probeScratch is one probe worker's reusable buffers: probe values and
// match collection live per worker, not per operator, so concurrent
// probes of the same state never share scratch. w is the worker's index
// into the dispatcher's deques. Below vals/matches come the
// inline-filter Matcher and index enumeration scratch, the worker's routing
// rng, the popped-batch and follow-up job buffers, the composite freelist
// (dead driving composites recycled into the next extension instead of
// allocating), and the tick-local statistics (result count, per-op probe
// counts, router observations, per-(op, pattern) assessor counts or — when
// the pattern space is too wide to materialize — the claimed tuning ops)
// that flushWorkers merges at the barrier.
type probeScratch struct {
	w       int
	vals    []tuple.Value
	matches []*tuple.Tuple

	matcher bitindex.Matcher
	ss      bitindex.SearchScratch
	rng     *rand.Rand
	buf     []probeJob
	pend    []probeJob
	free    []*tuple.Composite
	nres    uint64
	ndec    uint64
	nexp    uint64
	nprobes []uint64
	robs    []routerObs
	obs     []uint64
	dueOps  []int
}

// freeCap bounds a worker's composite freelist; composites past it are
// left to the GC (the list only needs to cover one batch's fan-out).
const freeCap = 1024

// takeSpare pops a recycled composite, or nil when the freelist is dry.
func (sc *probeScratch) takeSpare() *tuple.Composite {
	if n := len(sc.free); n > 0 {
		c := sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
		return c
	}
	return nil
}

// recycle returns a dead composite to the freelist.
func (sc *probeScratch) recycle(c *tuple.Composite) {
	if len(sc.free) < freeCap {
		sc.free = append(sc.free, c)
	}
}

// routerObs is one deferred router observation (a first-hop probe's match
// feedback), replayed at the tick barrier in a canonical order.
type routerObs struct {
	i, j     int
	matches  int
	stateLen int
}

// admitLocked is the only place an arrival enters the operator's state,
// live or replayed: index and window are maintained together — insert,
// retain, expire→delete. Timestamp-bucket expiry with watermark slack is
// exact under out-of-order arrivals. The caller holds o.mu.
func (o *operator) admitLocked(t *tuple.Tuple) {
	o.ix.Insert(t)
	o.retained.Add(t)
	o.retained.Expire(t.TS, func(old *tuple.Tuple) {
		o.ix.Delete(old)
	})
}

// insert applies one live arrival — admitLocked plus the checkpoint and WAL
// cursors — and reports whether a checkpoint is due.
func (o *operator) insert(t *tuple.Tuple) (ckpt bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.admitLocked(t)
	o.length.Store(int64(o.ix.Len()))
	o.sinceCkpt++
	o.applied++
	if o.durable {
		o.tail = append(o.tail, t)
	}
	return o.ckptEvery > 0 && o.sinceCkpt >= o.ckptEvery
}

// rebuildLocked makes ix the operator's live incarnation, for the
// supervisor's restart and for crash recovery alike: a snapshot's tuples are
// reloaded as they were retained (no expiry — the snapshot is already a
// post-expiry set), then the arrivals applied after it are replayed through
// admitLocked, exactly re-deriving the retained set they left behind. The
// epoch pointer is republished last, so the lock-free probe path never
// observes a half-built incarnation: a probe that already loaded the old
// pointer finishes against the old index, and every search sees exactly
// one. The caller holds o.mu.
func (o *operator) rebuildLocked(ix *core.AdaptiveIndex, snap, suffix []*tuple.Tuple) {
	o.ix = ix
	o.retained = o.newRetained()
	for _, t := range snap {
		ix.Insert(t)
		o.retained.Add(t)
	}
	for _, t := range suffix {
		o.admitLocked(t)
	}
	o.length.Store(int64(ix.Len()))
	o.cur.Store(ix)
}

// snapshot captures the retained tuples as the new checkpoint. In durable
// mode it also returns the serializable form — retained tuples, tuned
// config, WAL cursor — for the caller to persist OUTSIDE the operator lock
// (encode + store I/O must not stall the probe path); non-durable mode
// returns nil. The returned tuples alias the in-memory checkpoint, which
// is safe: tuples are immutable once created. Tuples are captured in
// timestamp order, so one state always encodes to the same bytes and a
// rebuild re-inserts in the same order on every run.
func (o *operator) snapshot() *opCheckpoint {
	o.mu.Lock()
	defer o.mu.Unlock()
	snap := make([]*tuple.Tuple, 0, o.retained.Len())
	o.retained.EachOrdered(func(t *tuple.Tuple) { snap = append(snap, t) })
	o.checkpoint = snap
	o.sinceCkpt = 0
	if !o.durable {
		return nil
	}
	o.tail = nil
	return &opCheckpoint{Op: o.id, Applied: o.applied, Cfg: o.ix.Config(), Tuples: snap}
}

// restore rebuilds the operator's state from its last checkpoint after a
// panic, reporting how many tuples were replayed and how many (inserted
// since that checkpoint) are gone for good. In durable mode the
// since-checkpoint tail is replayed too, so lost is always zero — the WAL
// vouches for those tuples, and the in-memory tail saves re-reading it. The
// new incarnation starts from the untuned configuration with a fresh
// controller (tuning state is advisory).
func (o *operator) restore() (replayed, lost uint64, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ix, err := o.newIx()
	if err != nil {
		return 0, 0, err
	}
	o.retunesBase += o.ix.Retunes()
	o.abortsBase += o.ix.MigrationAborts()
	o.tunerBase.Add(o.ix.TunerSummary())
	// The tail exists only in durable mode, where it is still not covered
	// by a checkpoint after the replay, so sinceCkpt stands.
	o.rebuildLocked(ix, o.checkpoint, o.tail)
	if !o.durable {
		lost = uint64(o.sinceCkpt)
		o.sinceCkpt = 0
	}
	return uint64(len(o.checkpoint) + len(o.tail)), lost, nil
}

// retunes reads the state's migration count under the operator lock (the
// index may still be mid-probe when a caller aggregates results), summed
// across restart incarnations.
func (o *operator) retunes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.retunesBase + o.ix.Retunes()
}

// migrationAborts sums rolled-back migrations across incarnations.
func (o *operator) migrationAborts() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.abortsBase + o.ix.MigrationAborts()
}

// tunerSummary sums the controller's decision ledger across incarnations.
func (o *operator) tunerSummary() tuner.Summary {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.tunerBase
	s.Add(o.ix.TunerSummary())
	return s
}

// shedAssessment drops the state's tuning statistics — the memory-pressure
// degradation response (statistics are reconstructible; tuples are not).
// The injected cost, when the fault plan sets one, is charged WHILE the
// write lock is held: a real reclamation walks the state it is shrinking,
// so the stall-under-lock is the faithful model: it convoys ingests of this
// state, while probes — which never take the operator lock — run straight
// past it.
func (o *operator) shedAssessment(cost time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if cost > 0 {
		//amrivet:lockhold fault injection: the stall models reclamation walking the locked state, so it must be charged under the lock
		time.Sleep(cost)
	}
	//amrivet:lockhold reclamation rewrites the assessor state o.mu guards; probes never take this lock, so the hold convoys only maintenance
	o.ix.ShedAssessment()
}

// probeMatch runs one search request against the state through the
// inline-filter SearchMatch path and returns the matches: the candidate
// filter runs inside the bucket scan (no per-candidate closure call) and
// the assessor is NOT touched (the worker defers the observation to the
// tick barrier, where flushWorkers batches it through ObserveSearches).
// The returned slice aliases the worker's scratch and is valid only until
// that worker's next probe (safe: the worker consumes the matches before
// popping another job). The index is probed without the operator lock: one
// atomic load pins the index incarnation for the whole search — old-or-new
// atomicity against a concurrent restore — and the index synchronizes
// internally all the way down its striped directory, so a retune,
// checkpoint or restore on the serve goroutine cannot stall the probe
// fan-out behind the operator lock.
//
//amrivet:hotpath batched-dispatch probe: inline-filter search with worker-owned scratch
func (o *operator) probeMatch(c *tuple.Composite, sc *probeScratch) []*tuple.Tuple {
	pt := o.spec.PatternForDone(c.Done)
	vals := sc.vals[:o.spec.NumAttrs()]
	m := &sc.matcher
	m.NEq = 0
	for i, ja := range o.spec.JAS {
		if pt.Has(i) {
			v := c.Parts[ja.Partner].Attrs[ja.PartnerAttr]
			vals[i] = v
			m.EqAttr[m.NEq] = ja.Attr
			m.EqVal[m.NEq] = v
			m.NEq++
		} else {
			vals[i] = 0
		}
	}
	drv := c.Driver()
	m.Driver = drv.Arrival
	m.MinTS = drv.TS - o.window
	sc.matches = sc.matches[:0]
	_, sc.matches = o.cur.Load().SearchMatch(pt, vals, m, &sc.ss, sc.matches)
	sc.nprobes[o.id]++ // flushed to o.probes at the tick barrier
	return sc.matches
}

// run bundles one Run invocation's shared machinery: the operator set, the
// fault injector, the in-flight message WaitGroup, and every counter the
// Result aggregates. It is always handled by pointer.
type run struct {
	cfg  Config
	n    int
	q    *query.Query
	prof stream.Profile
	gen  *stream.Generator
	ops  []*operator
	inj  *fault.Injector

	maxAttrs int
	store    storage.CheckpointStore // nil unless Config.Durable

	// wg tracks in-flight messages: every delivered message is Added once
	// and Done exactly once — when handled, shed, or lost to a panic.
	wg sync.WaitGroup

	// Dispatch state: the work-stealing dispatcher and its hand-off grain,
	// the per-worker scratches flushWorkers merges, the materialized (op,
	// pattern) space for deferred assessor counts (0 = too wide, workers
	// observe directly), the source's reusable job/router-observation
	// buffers, and the per-tick operator-length snapshot (lengths only
	// change in the ingest phase, so one snapshot taken at probe dispatch
	// serves every routing decision of the tick — no per-hop atomic loads).
	// rt needs no lock: the source goroutine writes it only in flushWorkers,
	// between the probe barrier (p.wg.Wait, after every worker's last
	// NextWith read of the tick) and the next tick's first deque push.
	dsp       *dispatcher
	batch     int
	scratches []*probeScratch
	patSpace  int
	jobBuf    []probeJob
	tickLens  []int
	robsBuf   []routerObs
	rt        *router.Router
	srcRng    *rand.Rand
	srcDec    uint64
	srcExp    uint64

	// storeMu guards storeErr: the first durable-store failure, recorded by
	// whichever goroutine hits it and surfaced as the run's error. Later
	// store calls still run (the run drains normally) but the result is
	// untrusted once any append or save was lost.
	storeMu  sync.Mutex
	storeErr error

	// Every run counter is cache-line padded: results and probeShed are
	// bumped by probe workers, ingested and restarts by supervisors,
	// delays by the source — all concurrently, and unpadded they would
	// pack these hot words into a couple of lines. curTick is published by
	// the source each tick and read by supervisors enforcing the
	// MaxRestartWindow wall budget.
	curTick    padInt64
	results    padUint64
	ingested   padUint64
	sheds      []padUint64
	ingestShed padUint64
	probeShed  padUint64
	ingestLost padUint64
	probeLost  padUint64
	restarts   padUint64
	permFailed padUint64
	replayed   padUint64
	stateLost  padUint64
	delays     padUint64
	pressure   padUint64
	recovered  padUint64
}

// recordStoreErr keeps the first durable-store failure for finish to
// surface.
func (p *run) recordStoreErr(err error) {
	if err == nil {
		return
	}
	p.storeMu.Lock()
	if p.storeErr == nil {
		p.storeErr = err
	}
	p.storeMu.Unlock()
}

// firstStoreErr returns the recorded failure, if any.
func (p *run) firstStoreErr() error {
	p.storeMu.Lock()
	defer p.storeMu.Unlock()
	return p.storeErr
}

// probeJob is one unit of deque work: composite comp probes operator o's
// state. Jobs are copied on every push/pop/steal and zeroed on every
// consume, so the struct stays two words.
type probeJob struct {
	o    *operator
	comp *tuple.Composite
}

// accountShed records one dropped unit of work — an arrival (ingest) or a
// probe — against its target operator.
func (p *run) accountShed(target int, ingest bool) {
	p.sheds[target].Add(1)
	if ingest {
		p.ingestShed.Add(1)
	} else {
		p.probeShed.Add(1)
	}
}

// deliverIngestBatch routes one tick's arrivals for a single operator with
// per-message fault and overload accounting, but one batched mailbox push
// (blocking: backpressure may stall the workload source) for the survivors —
// one lock acquisition per (operator, tick) instead of one per tuple. The
// injector decisions run in arrival order, so every (kind, actor) decision
// sequence is a per-message schedule. Every message is either enqueued with
// wg held, or shed with wg released.
func (p *run) deliverIngestBatch(target int, ts []*tuple.Tuple) {
	o := p.ops[target]
	msgs := make([]message, 0, len(ts))
	for _, t := range ts {
		m := message{ingest: t}
		if o.failed.Load() {
			p.accountShed(target, true)
			continue
		}
		if p.inj.Decide(fault.MailboxSaturate, target) {
			p.accountShed(target, true)
			continue
		}
		if p.inj.Decide(fault.MailboxDelay, target) {
			p.delays.Add(1)
			time.Sleep(p.inj.Delay())
		}
		// Pre-decide the handling-time panic (see message.doPanic): one
		// decision per survivor, in arrival order.
		m.doPanic = p.inj.Decide(fault.OperatorPanic, target)
		msgs = append(msgs, m)
	}
	if len(msgs) == 0 {
		return
	}
	p.wg.Add(len(msgs))
	for _, r := range o.mb.PushWaitBatch(msgs) {
		// Shed results are accounted by the mailbox's onShed hook (which sees
		// the actual dropped message — the victim head under drop-oldest).
		// A closed mailbox refuses the message outright: account it here.
		if r == PushClosed {
			p.accountShed(target, true)
			p.wg.Done()
		}
	}
}

// handleIngest processes one arrival on the operator's own goroutine.
func (p *run) handleIngest(o *operator, msg message) {
	// The panic fault (pre-decided at delivery, see message.doPanic) fires
	// while an arrival is being handled — after the message left the
	// mailbox, before it reached the state — the worst spot for an
	// unassisted crash. It fires before the insert, so a panic-killed tuple
	// is in neither the state nor the WAL: replay can never resurrect a
	// tuple the live run lost.
	if msg.doPanic {
		panic(fmt.Sprintf("pipeline: injected panic at operator %d", o.id))
	}
	p.applyArrival(o, msg.ingest)
}

// applyArrival inserts one arrival and makes it durable, in that order, on
// the operator's serve goroutine.
func (p *run) applyArrival(o *operator, t *tuple.Tuple) {
	ckptDue := o.insert(t)
	if p.store != nil {
		// One WAL record per applied arrival, appended after the insert
		// succeeded and outside the operator lock, so store latency never
		// stalls the probe path.
		p.recordStoreErr(p.store.AppendWAL(encodeIngestRecord(o.id, t)))
	}
	if ckptDue {
		if ck := o.snapshot(); ck != nil {
			// The WAL tail must be durable before the checkpoint that
			// acknowledges it publishes: a checkpoint whose Applied cursor
			// outruns the synced log would make recovery skip records the
			// crash erased. Sync batches at checkpoint cadence, so the
			// cost is amortized over CheckpointEvery arrivals.
			p.recordStoreErr(p.store.Sync())
			p.recordStoreErr(p.store.SaveCheckpoint(ck.Op, ck.encode()))
		}
	}
	p.ingested.Add(1)
}

// handleCompDeque processes one probe on a worker goroutine: the probe runs
// through the inline-filter probeMatch, follow-up composites go to the
// worker's pending batch (one deque push per popped batch, no mailbox in
// the loop), and every statistic that feeds tuning or routing is deferred
// to the worker's tick-local scratch for flushWorkers to merge at the
// barrier. Result emission stays inline: OnResult's concurrency contract is
// unchanged and the digest is order-insensitive.
//
//amrivet:hotpath deque worker probe execution
func (p *run) handleCompDeque(o *operator, comp *tuple.Composite, sc *probeScratch) {
	if p.inj.Decide(fault.MemoryPressure, o.id) {
		o.shedAssessment(p.inj.AssessCost())
		p.pressure.Add(1)
	}
	matches := o.probeMatch(comp, sc)
	if sc.obs != nil {
		sc.obs[o.id*p.patSpace+int(o.spec.PatternForDone(comp.Done))]++
	} else if o.cur.Load().ObserveSearches(o.spec.PatternForDone(comp.Done), 1) {
		sc.dueOps = append(sc.dueOps, o.id) //amrivet:ignore[hotalloc] append into the worker's tick-local scratch, drained and resliced at the barrier
	}
	if comp.Count() == 1 {
		src := bits.TrailingZeros32(comp.Done)
		//amrivet:ignore[hotalloc] append into the worker's tick-local scratch, drained and resliced at the barrier
		sc.robs = append(sc.robs, routerObs{i: src, j: o.id, matches: len(matches), stateLen: p.tickLens[o.id]})
	}
	for _, m := range matches {
		nc := comp.ExtendInto(sc.takeSpare(), m)
		if nc.Complete(p.n) {
			sc.nres++
			if p.cfg.OnResult != nil {
				p.cfg.OnResult(nc) // escapes to the caller; never recycled
			} else {
				sc.recycle(nc)
			}
			continue
		}
		if next := p.routeTick(nc.Done, sc.rng, &sc.ndec, &sc.nexp); next >= 0 {
			// The follow-up's wg slot is taken by the batched Add in
			// dequeWorker, before the parent batch's release.
			//amrivet:ignore[hotalloc] append into the worker's pending-batch scratch, pushed and resliced once per popped batch
			sc.pend = append(sc.pend, probeJob{o: p.ops[next], comp: nc})
		} else {
			sc.recycle(nc)
		}
	}
}

// dequeWorker is one probe worker: pop a batch off the own deque,
// steal half a victim's queue when dry, park when the whole dispatcher is
// empty. Follow-up jobs accumulated during a batch are pushed to the own
// deque in one operation (their wg slots were taken at creation, before the
// parent's release, so the tick barrier cannot pass while they are
// pending).
func (p *run) dequeWorker(sc *probeScratch) {
	for {
		n := p.dsp.popOwn(sc.w, p.batch, &sc.buf)
		if n == 0 {
			n = p.dsp.stealAny(sc.w, &sc.buf)
		}
		if n == 0 {
			if !p.dsp.park() {
				return
			}
			continue
		}
		p.dsp.wakeSibling()
		for i := 0; i < n; i++ {
			job := sc.buf[i]
			sc.buf[i] = probeJob{}
			// The target may have failed permanently after dispatch; shed
			// exactly as a mailbox drain would.
			if job.o.failed.Load() {
				p.accountShed(job.o.id, false)
			} else {
				p.handleCompDeque(job.o, job.comp, sc)
			}
			// The driving composite dies with its probe (extensions copy,
			// results escape): recycle it into the worker's freelist.
			sc.recycle(job.comp)
		}
		// One wg round-trip per batch, not per job: take the follow-ups'
		// slots first, then release the handled jobs', so the barrier count
		// can never touch zero while this batch's children are pending.
		if len(sc.pend) > 0 {
			p.wg.Add(len(sc.pend))
			p.dsp.push(sc.w, sc.pend)
			for i := range sc.pend {
				sc.pend[i] = probeJob{}
			}
			sc.pend = sc.pend[:0]
		}
		p.wg.Add(-n)
	}
}

// serve drains the mailbox until closed-and-empty: arrivals are handled
// inline (state mutation stays on the operator's goroutine, so an injected
// panic is attributable to it); probes never pass through mailboxes — the
// source and the workers hand them over on the worker deques. A panic
// escapes to the recover in superviseOnce.
func (p *run) serve(o *operator) {
	for {
		msg, ok := o.mb.Pop()
		if !ok {
			return
		}
		o.inflight = msg
		p.handleIngest(o, msg)
		o.inflight = message{}
		p.wg.Done()
	}
}

// superviseOnce runs one operator incarnation, converting a panic into
// done=false after releasing the abandoned in-flight message.
func (p *run) superviseOnce(o *operator) (done bool) {
	defer func() {
		if r := recover(); r == nil {
			return
		}
		done = false
		m := o.inflight
		o.inflight = message{}
		if m.ingest != nil {
			p.ingestLost.Add(1)
			p.wg.Done()
		}
	}()
	p.serve(o)
	return true
}

// supervise wraps one operator goroutine for its whole life: serve until
// clean exit, restart from checkpoint after each panic with capped
// exponential backoff, and declare the operator permanently failed — by
// restart count (MaxRestarts) or by flapping time (MaxRestartWindow) —
// shedding its backlog so the run still drains. An operator already failed
// when supervision starts (a recovered run resuming a pre-crash verdict)
// goes straight to the drain without re-counting the failure.
func (p *run) supervise(o *operator) {
	if o.failed.Load() {
		p.drainFailed(o)
		return
	}
	backoff := p.cfg.RestartBackoff
	// The wall budget tracks one "flap": windowStart is the tick of the
	// first panic in the current unhealthy stretch, lastPanic the most
	// recent. A healthy gap longer than the window re-arms the budget;
	// flapping continuously from windowStart for the whole window converts
	// to a permanent failure even with MaxRestarts remaining.
	windowStart, lastPanic := int64(-1), int64(-1)
	for {
		if p.superviseOnce(o) {
			return
		}
		if w := p.cfg.MaxRestartWindow; w > 0 {
			now := p.curTick.Load()
			if windowStart < 0 || now-lastPanic > w {
				windowStart = now
			} else if now-windowStart >= w {
				p.failOperator(o)
				return
			}
			lastPanic = now
		}
		if o.restarts.Load() >= int64(p.cfg.MaxRestarts) {
			p.failOperator(o)
			return
		}
		o.restarts.Add(1)
		p.restarts.Add(1)
		time.Sleep(backoff)
		if backoff < p.cfg.RestartBackoff*8 {
			backoff *= 2
		}
		replayed, lost, err := o.restore()
		if err != nil {
			p.failOperator(o)
			return
		}
		p.replayed.Add(replayed)
		p.stateLost.Add(lost)
	}
}

// failOperator renders the permanent-failure verdict: the operator stops
// processing, its routed length drops to zero, and its backlog (plus
// anything delivered before producers notice the failed flag) is shed
// until the run closes the mailbox.
func (p *run) failOperator(o *operator) {
	o.failed.Store(true)
	o.length.Store(0)
	p.permFailed.Add(1)
	p.drainFailed(o)
}

// drainFailed sheds a failed operator's backlog until the mailbox closes.
func (p *run) drainFailed(o *operator) {
	for {
		if _, ok := o.mb.Pop(); !ok {
			return
		}
		p.accountShed(o.id, true)
		p.wg.Done()
	}
}

// Run executes the workload concurrently and blocks until every message has
// drained — or, when the fault plan schedules crashes and Config.Durable is
// set, until the first crash point kills the run at a tick boundary (the
// Result then has Crashed set; resume it with Recover).
func Run(cfg Config) (*Result, error) {
	p, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	return p.execute(0)
}

// newRun validates the configuration and builds the run machinery —
// generator, operators, router, injector — without starting any goroutine.
// Run executes it from tick 0; Recover first reloads state from the
// durable store and executes it from the crash point + 1.
func newRun(cfg Config) (*run, error) {
	q := cfg.Query
	if q == nil {
		q = query.FourWay(60)
	}
	prof := cfg.Profile
	if prof.LambdaD == 0 {
		prof = stream.DriftProfile()
	}
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("pipeline: Ticks must be positive")
	}
	if cfg.MailboxCap < 0 {
		return nil, fmt.Errorf("pipeline: MailboxCap must be >= 0")
	}
	if cfg.ProbeWorkers < 0 {
		return nil, fmt.Errorf("pipeline: ProbeWorkers must be >= 0")
	}
	if cfg.ProbeWorkers == 0 {
		cfg.ProbeWorkers = runtime.NumCPU()
	}
	if cfg.Shards < 0 || cfg.Shards > 256 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("pipeline: Shards %d must be 0 or a power of two in [1, 256]", cfg.Shards)
	}
	if cfg.MaxRestartWindow < 0 {
		return nil, fmt.Errorf("pipeline: MaxRestartWindow must be >= 0")
	}
	if cfg.DispatchBatch < 0 {
		return nil, fmt.Errorf("pipeline: DispatchBatch must be >= 0")
	}
	if cfg.DispatchBatch == 0 {
		cfg.DispatchBatch = 64
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if len(cfg.Fault.CrashTicks) > 0 && cfg.Durable == nil {
		return nil, fmt.Errorf("pipeline: Fault.CrashTicks requires Config.Durable (nothing to recover from)")
	}
	if cfg.BitBudget == 0 {
		cfg.BitBudget = 12
	}
	if cfg.AutoTuneEvery == 0 {
		cfg.AutoTuneEvery = 2000
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = time.Millisecond
	}
	gen, err := stream.New(q, prof, cfg.Seed)
	if err != nil {
		return nil, err
	}

	n := q.NumStreams()
	p := &run{
		cfg:   cfg,
		n:     n,
		q:     q,
		prof:  prof,
		gen:   gen,
		ops:   make([]*operator, n),
		inj:   fault.New(cfg.Fault, n),
		store: cfg.Durable,
		sheds: make([]padUint64, n),
	}
	for s := 0; s < n; s++ {
		spec := q.States[s]
		if spec.NumAttrs() > p.maxAttrs {
			p.maxAttrs = spec.NumAttrs()
		}
		attrMap := make([]int, spec.NumAttrs())
		for i, ja := range spec.JAS {
			attrMap[i] = ja.Attr
		}
		opts := core.Options{
			NumAttrs:      spec.NumAttrs(),
			AttrMap:       attrMap,
			BitBudget:     cfg.BitBudget,
			Method:        cfg.Method,
			AutoTuneEvery: cfg.AutoTuneEvery,
			Seed:          cfg.Seed + uint64(s),
			Shards:        cfg.Shards,
		}
		if p.inj != nil {
			id := s
			opts.MigrateGate = func() bool {
				return !p.inj.Decide(fault.MigrationAbort, id)
			}
		}
		newIx := func() (*core.AdaptiveIndex, error) { return core.New(opts) }
		newRetained := func() *window.Buckets { return window.New(q.WindowTicks, prof.MaxDelay) }
		ix, err := newIx()
		if err != nil {
			return nil, err
		}
		o := &operator{
			id:          s,
			spec:        spec,
			ckptEvery:   cfg.CheckpointEvery,
			window:      q.WindowTicks,
			durable:     cfg.Durable != nil,
			newIx:       newIx,
			newRetained: newRetained,
			ix:          ix,
			retained:    newRetained(),
		}
		o.cur.Store(ix)
		o.mb = newBoundedMailbox[message](cfg.MailboxCap, cfg.ShedPolicy,
			func(message, PushResult) {
				p.accountShed(o.id, true)
				p.wg.Done()
			})
		p.ops[s] = o
	}

	p.rt = router.New(n, cfg.Explore, cfg.Seed+99)
	p.dsp = newDispatcher(cfg.ProbeWorkers)
	p.batch = cfg.DispatchBatch
	p.tickLens = make([]int, n)
	p.srcRng = rand.New(rand.NewPCG(cfg.Seed+199, cfg.Seed^0x85ebca6b))
	// Materialize the deferred-observation table only when the (op,
	// pattern) space is small enough; wider queries fall back to
	// direct (mutex-per-probe) observation on the workers.
	if p.maxAttrs <= 16 && n*(1<<uint(p.maxAttrs)) <= 1<<20 {
		p.patSpace = 1 << uint(p.maxAttrs)
	}
	p.scratches = make([]*probeScratch, cfg.ProbeWorkers)
	for w := range p.scratches {
		sc := &probeScratch{w: w, vals: make([]tuple.Value, p.maxAttrs), nprobes: make([]uint64, n)}
		sc.rng = rand.New(rand.NewPCG(cfg.Seed+199+uint64(w+1)*0x9e3779b9, cfg.Seed^uint64(w)*0xc2b2ae35))
		if p.patSpace > 0 {
			sc.obs = make([]uint64, n*p.patSpace)
		}
		p.scratches[w] = sc
	}
	return p, nil
}

// routeTick routes one hop during the probe phase: a lock-free read of the
// router's barrier-stable estimates against the tick's length snapshot,
// with the exploration draw from the caller's own rng and the decision
// counted in the caller's scratch (flushed at the barrier). The routing
// sequence differs per worker count — which probes run where and in what
// order always has — but the verified result set provably does not.
func (p *run) routeTick(done uint32, rng *rand.Rand, ndec, nexp *uint64) int {
	next, explored := p.rt.NextWith(done, p.tickLens, rng)
	*ndec++
	if explored {
		*nexp++
	}
	return next
}

// dispatchProbes builds one tick's root probe jobs (one composite per
// surviving arrival, routed to its first hop) and hands them to the worker
// deques in DispatchBatch chunks, round-robin. It snapshots the operator
// lengths first — the ingest phase is over, so they are constant until the
// next tick's — and all wg slots are taken before the first push so the
// tick barrier cannot pass early.
func (p *run) dispatchProbes(batch []*tuple.Tuple) {
	for i, o := range p.ops {
		p.tickLens[i] = int(o.length.Load())
	}
	jobs := p.jobBuf[:0]
	for _, t := range batch {
		comp := tuple.NewComposite(p.n, t)
		if next := p.routeTick(comp.Done, p.srcRng, &p.srcDec, &p.srcExp); next >= 0 {
			jobs = append(jobs, probeJob{o: p.ops[next], comp: comp})
		}
	}
	p.jobBuf = jobs
	if len(jobs) == 0 {
		return
	}
	p.wg.Add(len(jobs))
	nw := len(p.dsp.deques)
	w := 0
	for off := 0; off < len(jobs); off += p.batch {
		end := off + p.batch
		if end > len(jobs) {
			end = len(jobs)
		}
		p.dsp.push(w, jobs[off:end])
		w = (w + 1) % nw
	}
	for i := range jobs {
		jobs[i] = probeJob{}
	}
}

// flushWorkers merges the workers' tick-local statistics at the probe
// barrier, in a fixed order so the run's adaptive state evolves identically
// at any worker count, batch size or steal schedule: result counts first,
// then router observations (sorted into a canonical order — the multiset
// is deterministic, the per-worker arrival order is not), then assessor
// observations op-major and pattern-ascending through ObserveSearches, and
// finally the tuning passes those observations claimed, in operator order —
// which also fixes the injector's migration-abort decision sequence.
func (p *run) flushWorkers() {
	var due []int
	ndec, nexp := p.srcDec, p.srcExp
	p.srcDec, p.srcExp = 0, 0
	for _, sc := range p.scratches {
		ndec += sc.ndec
		nexp += sc.nexp
		sc.ndec, sc.nexp = 0, 0
		p.results.Add(sc.nres)
		sc.nres = 0
		for opID, np := range sc.nprobes {
			if np > 0 {
				p.ops[opID].probes.Add(np)
				sc.nprobes[opID] = 0
			}
		}
		p.robsBuf = append(p.robsBuf, sc.robs...)
		sc.robs = sc.robs[:0]
		due = append(due, sc.dueOps...)
		sc.dueOps = sc.dueOps[:0]
	}
	if ndec > 0 {
		p.rt.RecordDecisions(ndec, nexp)
	}
	sort.Slice(p.robsBuf, func(a, b int) bool {
		x, y := p.robsBuf[a], p.robsBuf[b]
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
	for _, ro := range p.robsBuf {
		p.rt.ObservePair(ro.i, ro.j, ro.matches, ro.stateLen)
	}
	p.robsBuf = p.robsBuf[:0]
	if p.patSpace > 0 {
		for opID, o := range p.ops {
			ix := o.cur.Load()
			base := opID * p.patSpace
			for pat := 0; pat < p.patSpace; pat++ {
				var total uint64
				for _, sc := range p.scratches {
					total += sc.obs[base+pat]
					sc.obs[base+pat] = 0
				}
				if total == 0 {
					continue
				}
				if ix.ObserveSearches(query.Pattern(pat), total) {
					due = append(due, opID)
				}
			}
		}
	}
	sort.Ints(due)
	for _, opID := range due {
		p.ops[opID].cur.Load().TuneClaimed()
	}
}

// execute spawns the supervisors and the probe worker pool, then runs the
// source tick loop from startTick, stopping early at the first scheduled
// crash point past startTick-1. It blocks until every message has drained
// and returns the aggregated Result.
func (p *run) execute(startTick int64) (*Result, error) {
	cfg, n := p.cfg, p.n

	// Supervisors: one per operator, each owning its operator's whole
	// lifecycle (serve, restart, permanent failure).
	var opWG sync.WaitGroup
	for s := 0; s < n; s++ {
		opWG.Add(1)
		go func(o *operator) {
			defer opWG.Done()
			p.supervise(o)
		}(p.ops[s])
	}

	// Probe workers: the pool every operator's probes fan out over. Each
	// worker owns its scratch and its deque for the life of the run, and
	// steals from its siblings when dry.
	var workerWG sync.WaitGroup
	for _, sc := range p.scratches {
		workerWG.Add(1)
		go func(sc *probeScratch) {
			defer workerWG.Done()
			p.dequeWorker(sc)
		}(sc)
	}

	crashTick, crashArmed := cfg.Fault.NextCrash(startTick - 1)
	crashed := false
	start := time.Now()
	// Source: ticks are delivered in two quiesced phases — all of a tick's
	// arrivals are inserted before any of them starts probing, exactly the
	// arrival-order semantics of the deterministic engine. Together with
	// the arrival-stamp filter this makes the concurrent result set equal
	// to the engine's (routing order cannot change a join's result set).
	// Operators still run fully in parallel within each phase.
	perOp := make([][]*tuple.Tuple, n)
	var lastTick int64 = startTick - 1
	for tick := startTick; tick < cfg.Ticks; tick++ {
		p.curTick.Store(tick)
		batch := p.gen.Tick(tick)
		if len(p.q.Filters) > 0 {
			// Selection push-down, same as the simulation engine.
			kept := batch[:0]
			for _, t := range batch {
				if p.q.Accepts(t) {
					kept = append(kept, t)
				}
			}
			batch = kept
		}
		// Group the tick's arrivals per target operator and deliver each
		// group as one batched push: same fault schedule, one mailbox lock
		// acquisition per operator instead of one per tuple.
		for _, t := range batch {
			perOp[t.Stream] = append(perOp[t.Stream], t)
		}
		for s := 0; s < n; s++ {
			if len(perOp[s]) > 0 {
				p.deliverIngestBatch(s, perOp[s])
				perOp[s] = perOp[s][:0]
			}
		}
		p.wg.Wait()
		p.dispatchProbes(batch)
		p.wg.Wait()
		p.flushWorkers()
		lastTick = tick
		if p.store != nil {
			// Tick record + Sync at the boundary: both barriers have
			// passed, so every ingest record for this tick is already
			// appended and the snapshot below is quiescent.
			p.recordStoreErr(p.store.AppendWAL(p.tickRecordNow(tick).encode()))
			p.recordStoreErr(p.store.Sync())
		}
		if cfg.OnTickEnd != nil {
			cfg.OnTickEnd(tick)
		}
		if crashArmed && tick == crashTick {
			// The scheduled kill: stop mid-run at a durable boundary, as
			// if the process died here. The drain below is orderly only
			// because everything past this tick is abandoned — Recover
			// rebuilds from the store, not from this process's memory.
			crashed = true
			break
		}
	}
	for _, o := range p.ops {
		o.mb.Close()
	}
	opWG.Wait()
	p.dsp.close()
	workerWG.Wait()

	res := &Result{
		Results:           p.results.Load(),
		Wall:              time.Since(start),
		TuplesIngested:    p.ingested.Load(),
		ShedsPerOp:        make([]uint64, n),
		IngestShed:        p.ingestShed.Load(),
		ProbeShed:         p.probeShed.Load(),
		IngestLost:        p.ingestLost.Load(),
		ProbeLost:         p.probeLost.Load(),
		Restarts:          int(p.restarts.Load()),
		PermanentFailures: int(p.permFailed.Load()),
		Replayed:          p.replayed.Load(),
		StateLost:         p.stateLost.Load(),
		InjectedDelays:    p.delays.Load(),
		PressureEvents:    p.pressure.Load(),
		Crashed:           crashed,
		ResumedTick:       startTick,
		Recovered:         p.recovered.Load(),
	}
	if crashed {
		res.CrashTick = lastTick
	}
	for i, o := range p.ops {
		res.ShedsPerOp[i] = p.sheds[i].Load()
		res.Sheds += res.ShedsPerOp[i]
		res.Probes += o.probes.Load()
		res.Retunes += o.retunes()
		res.MigrationAborts += o.migrationAborts()
		res.Tuner.Add(o.tunerSummary())
	}
	if err := p.firstStoreErr(); err != nil {
		return nil, fmt.Errorf("pipeline: durable store failed mid-run: %w", err)
	}
	return res, nil
}
