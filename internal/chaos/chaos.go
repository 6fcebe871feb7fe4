// Package chaos is the exploration harness behind cmd/amrichaos: it runs
// the concurrent pipeline through seeded crash/recover scenarios, checks
// the durability invariants after every recovery, and — when a scenario
// fails — delta-debugs it down to a minimal reproduction that can be
// replayed deterministically (cmd/amripipe -replay).
//
// The invariants a scenario is held to:
//
//   - Conservation: every generated arrival is ingested, shed, or lost —
//     counted, never silently vanished.
//   - Digest equality: the recovered run's result set equals the serial
//     uncrashed reference's (order-independent XOR digest + counters).
//   - Lossless restore: StateLost == 0 with durability on.
//   - Store fidelity: the WAL and checkpoints re-read cleanly and account
//     for exactly the tuples the run ingested (pipeline.AuditStore).
//   - No goroutine leaks across the whole crash/recover chain.
//
// A healthy system passes every scenario; the harness proves it can catch
// real failures via storage.FlakyStore — a lying disk that acknowledges
// WAL appends it drops — which deterministically violates the digest,
// conservation, or audit invariants.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"amri/internal/core"
	"amri/internal/fault"
	"amri/internal/pipeline"
	"amri/internal/storage"
	"amri/internal/stream"
	"amri/internal/tuple"
)

// Scenario is one reproducible exploration point: a workload seed, a fault
// plan (crash schedule included), the pipeline fan-out, and optionally a
// deliberately broken store. Scenarios round-trip through JSON — the repro
// files amrichaos emits and amripipe -replay consumes are exactly this.
type Scenario struct {
	// Seed drives the workload generator and routing randomness.
	Seed uint64 `json:"seed"`
	// Ticks is the run horizon (default 30).
	Ticks int64 `json:"ticks"`
	// Workers and Shards set the probe fan-out (defaults 8 and 8; Shards 0
	// is one stripe with stop-the-world migrations).
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// MailboxCap bounds operator mailboxes under PolicyBlock (default 64).
	MailboxCap int `json:"mailbox_cap,omitempty"`
	// Plan is the fault plan, crash schedule included.
	Plan fault.Plan `json:"plan"`
	// FlakeEvery, when > 1, wraps the durable store in storage.FlakyStore
	// dropping every FlakeEvery-th WAL append — the seeded broken-store
	// failure the harness exists to catch.
	FlakeEvery int `json:"flake_every,omitempty"`
}

// withDefaults fills the zero-value knobs.
func (s Scenario) withDefaults() Scenario {
	if s.Ticks <= 0 {
		s.Ticks = 30
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if s.MailboxCap <= 0 {
		s.MailboxCap = 64
	}
	return s
}

// profile is the harness workload: the same small four-stream profile the
// pipeline's determinism suite pins.
func profile() stream.Profile {
	return stream.Profile{
		LambdaD:      10,
		PayloadBytes: 40,
		EpochTicks:   40,
		Domains:      []uint64{8, 12, 18, 27, 40, 60},
	}
}

// config builds the pipeline configuration for one leg of a scenario.
func (s Scenario) config(workers, shards int, plan fault.Plan) pipeline.Config {
	return pipeline.Config{
		Profile:         profile(),
		Seed:            s.Seed,
		Ticks:           s.Ticks,
		Method:          core.MethodCDIAHighest,
		AutoTuneEvery:   300,
		Explore:         0.1,
		MailboxCap:      s.MailboxCap,
		ShedPolicy:      pipeline.PolicyBlock,
		Fault:           plan,
		CheckpointEvery: 64,
		MaxRestarts:     50,
		RestartBackoff:  50 * time.Microsecond,
		ProbeWorkers:    workers,
		Shards:          shards,
	}
}

// digest is an order-independent result-set fingerprint, matching the
// pipeline test suite's: per-result hash of every part's identity, XORed.
type digest struct {
	mu  sync.Mutex
	xor uint64
	n   uint64
}

func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func (d *digest) add(c *tuple.Composite) {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, p := range c.Parts {
		if p == nil {
			continue
		}
		h += mix(uint64(p.Stream)*0x100000001b3 ^ p.Seq ^ uint64(p.TS)<<20)
	}
	d.mu.Lock()
	d.xor ^= mix(h)
	d.n++
	d.mu.Unlock()
}

// Report is what exploring one scenario produced.
type Report struct {
	Scenario   Scenario `json:"scenario"`
	Violations []string `json:"violations,omitempty"`
	// Results / RefResults are the subject's and the serial reference's
	// result counts; Recoveries is how many crash/recover cycles ran;
	// Dropped is how many WAL appends the flaky store lost (0 without one).
	Results    uint64 `json:"results"`
	RefResults uint64 `json:"ref_results"`
	Recoveries int    `json:"recoveries"`
	Dropped    int    `json:"dropped,omitempty"`
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// settleGoroutines polls until the goroutine count drops to at most want
// (teardown is asynchronous after WaitGroup release).
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// Explore runs one scenario end to end: a serial durable reference, then
// the subject run driven through its whole crash schedule, then every
// invariant. It never returns an error — anything that goes wrong is a
// violation in the report, which is what the minimizer's predicate needs.
func Explore(sc Scenario) *Report {
	sc = sc.withDefaults()
	rep := &Report{Scenario: sc}
	before := runtime.NumGoroutine()

	// Serial reference: same plan minus the crash schedule, durable (the
	// lossless-restore semantics must match the subject's), one worker,
	// one stripe.
	refPlan := sc.Plan
	refPlan.CrashTicks = nil
	refCfg := sc.config(1, 0, refPlan)
	refCfg.Durable = storage.NewMemStore()
	refDig := &digest{}
	refCfg.OnResult = refDig.add
	refRes, err := pipeline.Run(refCfg)
	if err != nil {
		rep.violate("reference run failed: %v", err)
		return rep
	}
	rep.RefResults = refRes.Results

	// Subject: full fan-out, crash schedule live, optionally a lying disk.
	var store storage.CheckpointStore = storage.NewMemStore()
	var flaky *storage.FlakyStore
	if sc.FlakeEvery > 1 {
		flaky = &storage.FlakyStore{CheckpointStore: store, DropEvery: sc.FlakeEvery}
		store = flaky
	}
	cfg := sc.config(sc.Workers, sc.Shards, sc.Plan)
	cfg.Durable = store
	dig := &digest{}
	cfg.OnResult = dig.add
	res, err := pipeline.Run(cfg)
	// A broken store can make recovery re-crash at the same point; bound
	// the chain so the harness convicts instead of spinning.
	maxRecoveries := 4*len(sc.Plan.CrashTicks) + 8
	for err == nil && res.Crashed {
		if rep.Recoveries++; rep.Recoveries > maxRecoveries {
			rep.violate("recovery did not converge after %d cycles", maxRecoveries)
			break
		}
		res, err = pipeline.Recover(cfg)
	}
	if flaky != nil {
		rep.Dropped = flaky.Dropped()
	}
	if err != nil {
		rep.violate("run/recover failed: %v", err)
	} else if !rep.Failed() {
		rep.Results = res.Results

		// Conservation: arrivals = ingested + shed + lost, exactly.
		arrivals := uint64(sc.Ticks) * uint64(profile().LambdaD) * 4
		if got := res.TuplesIngested + res.IngestShed + res.IngestLost; got != arrivals {
			rep.violate("conservation: %d of %d arrivals accounted (ingested %d, shed %d, lost %d)",
				got, arrivals, res.TuplesIngested, res.IngestShed, res.IngestLost)
		}
		// Digest equality with the uncrashed serial reference.
		if res.Results != refRes.Results {
			rep.violate("results: %d, reference %d", res.Results, refRes.Results)
		}
		if dig.n != refDig.n || dig.xor != refDig.xor {
			rep.violate("result digest: %d results xor %016x, reference %d xor %016x",
				dig.n, dig.xor, refDig.n, refDig.xor)
		}
		// Lossless restore under durability.
		if res.StateLost != 0 {
			rep.violate("StateLost = %d with durability on", res.StateLost)
		}
		// Store round-trip fidelity and accounting.
		if audit, aerr := pipeline.AuditStore(store, len(res.ShedsPerOp)); aerr != nil {
			rep.violate("store audit: %v", aerr)
		} else {
			if audit.IngestRecords != res.TuplesIngested {
				rep.violate("WAL holds %d ingest records, run ingested %d", audit.IngestRecords, res.TuplesIngested)
			}
			if audit.LastTick != sc.Ticks-1 {
				rep.violate("last durable tick %d, want %d", audit.LastTick, sc.Ticks-1)
			}
		}
	}

	if after := settleGoroutines(before); after > before {
		rep.violate("goroutine leak: %d before, %d after", before, after)
	}
	return rep
}

// WriteRepro writes a scenario as an indented JSON repro file.
func WriteRepro(path string, sc Scenario) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads and validates a scenario repro file.
func LoadRepro(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	sc, err := parseRepro(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("chaos: repro %s: %w", path, err)
	}
	return sc, nil
}

// parseRepro decodes a repro and refuses one that is not a runnable
// scenario, so a typo in a hand-edited file is a usage error at load time —
// not a "durability violation" when the pipeline rejects the configuration
// mid-exploration, and not a PASS for a plan that meant something else.
// Zero knobs are withDefaults' to fill.
func parseRepro(data []byte) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return Scenario{}, err
	}
	switch {
	case sc.Ticks < 0:
		return Scenario{}, fmt.Errorf("ticks %d is negative", sc.Ticks)
	case sc.Workers < 0:
		return Scenario{}, fmt.Errorf("workers %d is negative", sc.Workers)
	case sc.Shards < 0 || sc.Shards > 256 || sc.Shards&(sc.Shards-1) != 0:
		return Scenario{}, fmt.Errorf("shards %d must be 0 or a power of two in [1, 256]", sc.Shards)
	case sc.MailboxCap < 0:
		return Scenario{}, fmt.Errorf("mailbox_cap %d is negative", sc.MailboxCap)
	case sc.FlakeEvery < 0:
		return Scenario{}, fmt.Errorf("flake_every %d is negative", sc.FlakeEvery)
	}
	if err := sc.Plan.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
