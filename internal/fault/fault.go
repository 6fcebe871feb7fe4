// Package fault is a deterministic, seeded fault injector for the
// concurrent pipeline. A Plan describes which fault classes fire and how
// often; an Injector evaluates the plan at runtime. Every decision is a
// pure function of (plan seed, fault kind, actor id, the actor's own event
// counter) — never of wall-clock time, goroutine interleaving, or a shared
// random source — so two runs in which each actor sees the same event
// counts inject exactly the same faults. That is what makes chaos runs
// reproducible: `go test -race` can assert that a seeded fault plan yields
// identical restart and shed counts run over run.
//
// The injector draws no randomness from math/rand at all (decisions are
// splitmix64 hashes of the seed), so the detrand analyzer's seeded-
// reproducibility invariant holds here by construction.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// OperatorPanic crashes an operator goroutine while it handles an
	// arrival, before the tuple reaches the state. The supervisor's
	// panic recovery and checkpoint restart are what keep the run alive.
	OperatorPanic Kind = iota
	// MailboxSaturate forces an arrival delivery to behave as if the
	// target mailbox were full, shedding the message through the
	// overload-policy accounting path.
	MailboxSaturate
	// MailboxDelay stalls one delivery by the plan's Delay — a
	// timing-only fault that shakes out ordering assumptions under
	// -race without changing any count.
	MailboxDelay
	// MigrationAbort fails an index migration mid-MigrateStep; the
	// bitindex rollback must leave the old directory authoritative.
	MigrationAbort
	// MemoryPressure simulates a low-memory signal at an operator,
	// which responds by shedding its assessment statistics.
	MemoryPressure
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OperatorPanic:
		return "operator-panic"
	case MailboxSaturate:
		return "mailbox-saturate"
	case MailboxDelay:
		return "mailbox-delay"
	case MigrationAbort:
		return "migration-abort"
	case MemoryPressure:
		return "memory-pressure"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Plan is a seeded fault schedule. Rates are per-event probabilities in
// [0, 1] at each kind's injection site; a rate of 1 fires on every event,
// 0 never. The zero value injects nothing.
//
// Plans round-trip through JSON losslessly (durations encode as integer
// nanoseconds): amrichaos writes a minimized repro plan as JSON and
// `amripipe -replay` reloads it byte-for-byte equivalent, so a repro found
// in CI replays identically at a desk.
type Plan struct {
	// Seed keys every decision; the same seed reproduces the same fault
	// schedule against the same workload.
	Seed uint64 `json:"seed"`
	// PanicRate fires OperatorPanic per handled arrival.
	PanicRate float64 `json:"panic_rate,omitempty"`
	// SaturateRate fires MailboxSaturate per arrival delivery.
	SaturateRate float64 `json:"saturate_rate,omitempty"`
	// DelayRate fires MailboxDelay per delivery, stalling it by Delay.
	DelayRate float64 `json:"delay_rate,omitempty"`
	// Delay is the injected delivery stall (default 50µs when DelayRate
	// is set but Delay is zero). Encodes in JSON as nanoseconds.
	Delay time.Duration `json:"delay_ns,omitempty"`
	// AbortRate fires MigrationAbort per proposed index migration.
	AbortRate float64 `json:"abort_rate,omitempty"`
	// PressureRate fires MemoryPressure per handled probe.
	PressureRate float64 `json:"pressure_rate,omitempty"`
	// AssessCost is the simulated wall cost of one MemoryPressure shed
	// assessment: the operator holds its write lock for this long,
	// modeling the state reclamation a real low-memory signal triggers.
	// Zero charges nothing (the default; existing chaos plans keep their
	// timing).
	AssessCost time.Duration `json:"assess_cost_ns,omitempty"`
	// CrashTicks schedules whole-run crashes: after the run completes
	// simulated tick T (state quiesced, WAL synced) for each T listed, the
	// run stops as if the process died, and pipeline.Recover resumes it at
	// T+1 from the durable store. Ticks must be ascending; a tick at or
	// past the run length never fires. Requires a durable store — the
	// pipeline rejects CrashTicks without one, because there would be
	// nothing to recover from.
	CrashTicks []int64 `json:"crash_ticks,omitempty"`
}

// Validate reports the first way the plan is not a fault schedule: a rate
// outside [0, 1] (NaN included), a negative duration, or crash ticks that are
// negative or not ascending. It is the one check every entry point shares —
// pipeline.Run for a Plan built in code, chaos.LoadRepro for one read from a
// file — so a malformed plan is a usage error, never a run that quietly
// injects something else.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"PanicRate", p.PanicRate}, {"SaturateRate", p.SaturateRate}, {"DelayRate", p.DelayRate},
		{"AbortRate", p.AbortRate}, {"PressureRate", p.PressureRate},
	} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.rate)
		}
	}
	if p.Delay < 0 || p.AssessCost < 0 {
		return fmt.Errorf("fault: negative duration (Delay %v, AssessCost %v)", p.Delay, p.AssessCost)
	}
	for i, t := range p.CrashTicks {
		if t < 0 {
			return fmt.Errorf("fault: CrashTicks[%d] = %d is negative", i, t)
		}
		if i > 0 && t < p.CrashTicks[i-1] {
			return fmt.Errorf("fault: CrashTicks must be ascending, got %d after %d", t, p.CrashTicks[i-1])
		}
	}
	return nil
}

// None is the empty plan: no faults are ever injected.
var None = Plan{}

// Enabled reports whether the plan can inject anything at all. Crash
// scheduling is deliberately excluded: CrashTicks alone does not need an
// Injector, only a durable store.
func (p Plan) Enabled() bool {
	return p.PanicRate > 0 || p.SaturateRate > 0 || p.DelayRate > 0 ||
		p.AbortRate > 0 || p.PressureRate > 0
}

// NextCrash returns the first scheduled crash tick strictly after `after`,
// or ok=false when none remains. Pass -1 for the first crash of a run.
func (p Plan) NextCrash(after int64) (int64, bool) {
	for _, t := range p.CrashTicks {
		if t > after {
			return t, true
		}
	}
	return 0, false
}

// rate returns the plan's probability for one kind.
func (p Plan) rate(k Kind) float64 {
	switch k {
	case OperatorPanic:
		return p.PanicRate
	case MailboxSaturate:
		return p.SaturateRate
	case MailboxDelay:
		return p.DelayRate
	case MigrationAbort:
		return p.AbortRate
	case MemoryPressure:
		return p.PressureRate
	default:
		return 0
	}
}

// Default returns a modest chaos plan keyed by seed: occasional operator
// panics and forced saturation, short delivery stalls, every fourth
// proposed migration aborted, and rare memory-pressure signals. It is the
// plan cmd/amripipe's -chaos-seed flag runs.
func Default(seed uint64) Plan {
	return Plan{
		Seed:         seed,
		PanicRate:    0.001,
		SaturateRate: 0.002,
		DelayRate:    0.001,
		Delay:        50 * time.Microsecond,
		AbortRate:    0.25,
		PressureRate: 0.0005,
	}
}

// Injector evaluates a plan's decisions for one run over a fixed set of
// actors (operators). Each (kind, actor) pair owns an event counter, so
// concurrent actors never perturb each other's schedules. A nil *Injector
// never injects; every method is nil-safe so the disabled path costs one
// branch.
type Injector struct {
	plan   Plan
	actors int
	seq    []counter // event counters, kind-major
	hits   []counter // injected-fault counters, kind-major
}

// counter is an atomic event counter alone on its cache line. The counter
// arrays are kind-major with one slot per actor, and every actor bumps its
// slot on every event — unpadded neighbours would false-share the line.
type counter struct {
	atomic.Uint64
	_ [56]byte
}

// New builds an injector for the plan over `actors` actors. A disabled
// plan (or no actors) yields nil, the never-inject injector.
func New(plan Plan, actors int) *Injector {
	if !plan.Enabled() || actors <= 0 {
		return nil
	}
	if plan.DelayRate > 0 && plan.Delay <= 0 {
		plan.Delay = 50 * time.Microsecond
	}
	n := int(numKinds) * actors
	return &Injector{
		plan:   plan,
		actors: actors,
		seq:    make([]counter, n),
		hits:   make([]counter, n),
	}
}

// Decide consumes one event for (kind, actor) and reports whether the
// plan injects a fault there. Decisions for an actor depend only on how
// many events that actor has already presented, so they are reproducible
// across runs regardless of scheduling.
func (in *Injector) Decide(k Kind, actor int) bool {
	if in == nil {
		return false
	}
	r := in.plan.rate(k)
	if r <= 0 {
		return false
	}
	i := int(k)*in.actors + actor
	n := in.seq[i].Add(1) - 1
	if !hashDecide(in.plan.Seed, k, actor, n, r) {
		return false
	}
	in.hits[i].Add(1)
	return true
}

// Delay returns the plan's delivery stall duration.
func (in *Injector) Delay() time.Duration {
	if in == nil {
		return 0
	}
	return in.plan.Delay
}

// AssessCost returns the plan's simulated shed-assessment duration.
func (in *Injector) AssessCost() time.Duration {
	if in == nil {
		return 0
	}
	return in.plan.AssessCost
}

// Hits returns how many faults of kind k were injected at actor.
func (in *Injector) Hits(k Kind, actor int) uint64 {
	if in == nil {
		return 0
	}
	return in.hits[int(k)*in.actors+actor].Load()
}

// TotalHits sums Hits over all actors.
func (in *Injector) TotalHits(k Kind) uint64 {
	if in == nil {
		return 0
	}
	var total uint64
	for a := 0; a < in.actors; a++ {
		total += in.hits[int(k)*in.actors+a].Load()
	}
	return total
}

// Snapshot captures every (kind, actor) event and hit counter as a flat
// slice — seq counters first, hits second, both kind-major. Because every
// decision is a pure function of (seed, kind, actor, counter), restoring
// the counters into a fresh injector resumes the fault schedule exactly
// where the snapshot left it: recovery replays no fault twice and skips
// none. A nil injector snapshots to nil.
func (in *Injector) Snapshot() []uint64 {
	if in == nil {
		return nil
	}
	out := make([]uint64, 2*len(in.seq))
	for i := range in.seq {
		out[i] = in.seq[i].Load()
	}
	for i := range in.hits {
		out[len(in.seq)+i] = in.hits[i].Load()
	}
	return out
}

// Restore loads a Snapshot taken from an injector with the same plan and
// actor count. A mismatched length means the checkpoint came from a
// differently-shaped run and is rejected.
func (in *Injector) Restore(snap []uint64) error {
	if in == nil {
		if len(snap) == 0 {
			return nil
		}
		return fmt.Errorf("fault: restoring %d counters into nil injector", len(snap))
	}
	if len(snap) != 2*len(in.seq) {
		return fmt.Errorf("fault: snapshot has %d counters, injector wants %d", len(snap), 2*len(in.seq))
	}
	for i := range in.seq {
		in.seq[i].Store(snap[i])
	}
	for i := range in.hits {
		in.hits[i].Store(snap[len(in.seq)+i])
	}
	return nil
}

// hashDecide maps (seed, kind, actor, n) to a uniform draw in [0,1) and
// compares it against the rate.
func hashDecide(seed uint64, k Kind, actor int, n uint64, rate float64) bool {
	x := seed
	x ^= 0x9e3779b97f4a7c15 * uint64(k+1)
	x ^= 0xbf58476d1ce4e5b9 * uint64(actor+1)
	x ^= 0x94d049bb133111eb * (n + 1)
	u := float64(splitmix64(x)>>11) / (1 << 53)
	return u < rate
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
