package pipeline

// Same-seed determinism across the concurrency axes the tentpole added:
// the result SET of a run must not depend on the probe worker count or the
// index shard count — parallel fan-out may reorder result emission, never
// change membership. The digest tests pin that for fault-free runs and for
// a seeded chaos plan (panics, saturation, delays, migration aborts), the
// configuration the acceptance bar "sharded digest == serial digest"
// names.

import (
	"fmt"
	"testing"
	"time"

	"amri/internal/core"
	"amri/internal/fault"
)

// detConfig is the shared base: bounded mailboxes under PolicyBlock (the
// spill-don't-shed policy that keeps the probe path lossless) and live
// tuning aggressive enough that migrations interleave with traffic.
func detConfig(workers, shards int, plan fault.Plan) Config {
	return Config{
		Profile:         smallProfile(),
		Seed:            23,
		Ticks:           100,
		Method:          core.MethodCDIAHighest,
		AutoTuneEvery:   300,
		Explore:         0.1,
		MailboxCap:      64,
		ShedPolicy:      PolicyBlock,
		Fault:           plan,
		CheckpointEvery: 64,
		MaxRestarts:     50,
		RestartBackoff:  50 * time.Microsecond,
		ProbeWorkers:    workers,
		Shards:          shards,
	}
}

func digestRun(t *testing.T, cfg Config) (*Result, *resultDigest) {
	t.Helper()
	d := &resultDigest{}
	cfg.OnResult = d.add
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, d
}

func assertSameResultSet(t *testing.T, label string, serial, got *Result, want, d *resultDigest) {
	t.Helper()
	if got.TuplesIngested != serial.TuplesIngested {
		t.Errorf("%s: ingested %d, serial %d", label, got.TuplesIngested, serial.TuplesIngested)
	}
	if got.Results != serial.Results {
		t.Errorf("%s: results %d, serial %d", label, got.Results, serial.Results)
	}
	if d.n != want.n || d.xor != want.xor {
		t.Errorf("%s: digest (n=%d, %#x) != serial (n=%d, %#x)",
			label, d.n, d.xor, want.n, want.xor)
	}
}

// TestShardedDigestMatchesSerial: the 1-worker one-stripe run is the
// reference; every combination of worker pool size and shard count must
// reproduce its exact result set. The last case never retunes (a cadence
// no run reaches) against a reference that does: the tuner moves access
// structures, never results.
func TestShardedDigestMatchesSerial(t *testing.T) {
	serial, want := digestRun(t, detConfig(1, 0, fault.None))
	if serial.Results == 0 {
		t.Fatal("serial run produced no results; workload broken")
	}
	if serial.Retunes == 0 {
		t.Fatal("serial reference never retuned; the no-tuning case would compare nothing")
	}
	cases := []struct {
		label           string
		workers, shards int
		tuneEvery       uint64 // 0 keeps detConfig's cadence
	}{
		{"1 worker, 1 shard", 1, 1, 0},
		{"4 workers, one stripe", 4, 0, 0},
		{"4 workers, 8 shards", 4, 8, 0},
		{"8 workers, 8 shards", 8, 8, 0},
		{"4 workers, 8 shards, no tuning", 4, 8, 1 << 62},
	}
	for _, c := range cases {
		cfg := detConfig(c.workers, c.shards, fault.None)
		if c.tuneEvery != 0 {
			cfg.AutoTuneEvery = c.tuneEvery
		}
		got, d := digestRun(t, cfg)
		assertSameResultSet(t, c.label, serial, got, want, d)
		if c.tuneEvery != 0 && got.Retunes != 0 {
			t.Errorf("%s: %d retunes, want 0", c.label, got.Retunes)
		}
	}
}

// TestGoldenDigest pins the result set across commits: every other test in
// this file compares against a reference computed in the same process, so a
// change that shifts the result set consistently in all configurations
// passes them all. The one-stripe (Shards: 0) run of the drift workload
// (seed 1, 300 ticks, the configuration benchmark/workloads.go fixes) must
// keep producing exactly this set — from one probe worker, and from four:
// one-stripe probes no longer queue on the operator lock, so under the race
// detector the second case is also the pin of that concurrency surface.
func TestGoldenDigest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, d := digestRun(t, Config{
			Seed:          1,
			Ticks:         300,
			Method:        core.MethodCDIAHighest,
			AutoTuneEvery: 2000,
			Explore:       0.1,
			MailboxCap:    64,
			ShedPolicy:    PolicyBlock,
			ProbeWorkers:  workers,
		})
		if got := fmt.Sprintf("%016x-%d", d.xor, d.n); got != "9508ed9115ef9133-3503" {
			t.Fatalf("drift seed-1 result set drifted at %d workers: digest %s, want 9508ed9115ef9133-3503", workers, got)
		}
	}
}

// TestDispatchBatchDeterminism pins the deque-dispatch refactor along its
// new tuning axis: the result set must not depend on the hand-off grain.
// DispatchBatch changes how jobs clump onto deques and therefore how much
// stealing happens — a digest shift at any grain means some statistic or
// result leaked out of the tick-barrier flush order. Swept with chaos off
// and on (grain also reshapes which goroutine trips an injected fault).
func TestDispatchBatchDeterminism(t *testing.T) {
	chaos := fault.Plan{
		Seed:         7,
		PanicRate:    0.004,
		SaturateRate: 0.01,
		DelayRate:    0.002,
		Delay:        10 * time.Microsecond,
		AbortRate:    1.0,
		PressureRate: 0.01,
	}
	for _, pc := range []struct {
		label string
		plan  fault.Plan
	}{
		{"fault-free", fault.None},
		{"chaos", chaos},
	} {
		serial, want := digestRun(t, detConfig(1, 0, pc.plan))
		if serial.Results == 0 {
			t.Fatalf("%s: serial reference produced no results; workload broken", pc.label)
		}
		for _, batch := range []int{1, 16, 256} {
			for _, workers := range []int{1, 2, 8} {
				cfg := detConfig(workers, 8, pc.plan)
				cfg.DispatchBatch = batch
				got, d := digestRun(t, cfg)
				label := fmt.Sprintf("%s batch=%d workers=%d", pc.label, batch, workers)
				assertSameResultSet(t, label, serial, got, want, d)
			}
		}
	}
}

// TestShardedDigestMatchesSerialUnderFaults repeats the digest comparison
// with the chaos plan live: operator panics, forced saturation, delivery
// stalls, every migration aborted mid-step, memory pressure. Fault
// decisions are keyed to per-(kind, actor) event counters whose ingest
// sequences do not depend on probe scheduling, so the loss is identical
// run to run — and therefore so is the surviving result set.
func TestShardedDigestMatchesSerialUnderFaults(t *testing.T) {
	plan := fault.Plan{
		Seed:         7,
		PanicRate:    0.004,
		SaturateRate: 0.01,
		DelayRate:    0.002,
		Delay:        10 * time.Microsecond,
		AbortRate:    1.0,
		PressureRate: 0.01,
	}
	serial, want := digestRun(t, detConfig(1, 0, plan))
	if serial.Results == 0 {
		t.Fatal("serial chaos run produced no results")
	}
	if serial.Restarts == 0 || serial.IngestShed == 0 {
		t.Fatalf("chaos plan not exercised: %+v", serial)
	}
	cases := []struct {
		label           string
		workers, shards int
	}{
		{"1 worker, 8 shards", 1, 8},
		{"4 workers, 8 shards", 4, 8},
		{"8 workers, 8 shards", 8, 8},
	}
	for _, c := range cases {
		got, d := digestRun(t, detConfig(c.workers, c.shards, plan))
		assertSameResultSet(t, c.label, serial, got, want, d)
		// Fault loss accounting must be reproducible too, not just the
		// survivors: same panics, same restarts, same forced sheds.
		if got.Restarts != serial.Restarts {
			t.Errorf("%s: restarts %d, serial %d", c.label, got.Restarts, serial.Restarts)
		}
		if got.Sheds != serial.Sheds {
			t.Errorf("%s: sheds %d, serial %d", c.label, got.Sheds, serial.Sheds)
		}
		if got.IngestShed != serial.IngestShed {
			t.Errorf("%s: ingest sheds %d, serial %d", c.label, got.IngestShed, serial.IngestShed)
		}
		if got.StateLost != serial.StateLost {
			t.Errorf("%s: state lost %d, serial %d", c.label, got.StateLost, serial.StateLost)
		}
	}
}
