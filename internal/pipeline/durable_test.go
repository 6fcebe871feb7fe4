package pipeline

// Durability regression suite: WAL-backed checkpoints must make the
// pipeline crash-transparent. The acceptance pin is the crash-point sweep —
// a durable run killed at EVERY tick boundary and resumed by Recover must
// end digest-identical to the uncrashed serial run, with zero state loss
// and exact arrival conservation, at full worker/shard fan-out, chaos on
// and off.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"amri/internal/bitindex"
	"amri/internal/fault"
	"amri/internal/storage"
	"amri/internal/tuple"
)

// sweepChaos is the fault plan the durable tests inject when chaos is on:
// the same storm the epoch-path pin uses (panics, saturation, stalls,
// every migration aborted, memory pressure).
func sweepChaos() fault.Plan {
	return fault.Plan{
		Seed:         7,
		PanicRate:    0.004,
		SaturateRate: 0.01,
		DelayRate:    0.002,
		Delay:        10 * time.Microsecond,
		AbortRate:    1.0,
		PressureRate: 0.01,
	}
}

// arrivals is the post-generator workload size for a detConfig run: the
// small profile has constant per-stream rate LambdaD over 4 streams.
func arrivals(cfg Config) uint64 {
	return uint64(cfg.Ticks) * uint64(cfg.Profile.LambdaD) * 4
}

// runThroughCrashes executes a durable run to completion through every
// scheduled crash point — Run, then Recover until the plan is out of
// crashes — folding all segments' results into one digest. The returned
// Result is the final segment's, whose counters are cumulative.
func runThroughCrashes(t *testing.T, cfg Config) (*Result, *resultDigest) {
	t.Helper()
	d := &resultDigest{}
	cfg.OnResult = d.add
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for res.Crashed {
		res, err = Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	return res, d
}

func assertConserved(t *testing.T, label string, cfg Config, res *Result) {
	t.Helper()
	if got := res.TuplesIngested + res.IngestShed + res.IngestLost; got != arrivals(cfg) {
		t.Errorf("%s: conservation broken: ingested %d + shed %d + lost %d = %d, want %d arrivals",
			label, res.TuplesIngested, res.IngestShed, res.IngestLost, got, arrivals(cfg))
	}
}

// TestDurabilityInvisibleWhenUncrashed: turning on the durable store must
// not perturb the result set — a durable run with no crash schedule is
// digest-identical to the plain in-memory run.
func TestDurabilityInvisibleWhenUncrashed(t *testing.T) {
	serial, want := digestRun(t, detConfig(4, 8, fault.None))
	cfg := detConfig(4, 8, fault.None)
	cfg.Durable = storage.NewMemStore()
	got, d := digestRun(t, cfg)
	assertSameResultSet(t, "durable vs plain", serial, got, want, d)
	if got.Crashed {
		t.Error("uncrashed durable run reports Crashed")
	}
}

// TestCrashPointSweep is the acceptance pin: with durability on, a run
// killed at every tick boundary and recovered ends digest-identical to the
// uncrashed serial reference (Lost == 0, conservation holds) at 8 workers
// × 8 shards, chaos on and off.
func TestCrashPointSweep(t *testing.T) {
	const ticks = 25
	for _, pc := range []struct {
		label string
		plan  fault.Plan
	}{
		{"fault-free", fault.None},
		{"chaos", sweepChaos()},
	} {
		// The serial reference is durable too: durability makes supervisor
		// restores lossless (the tail is replayed), so a chaos run's state
		// evolution only matches across runs that share that semantics.
		ref := detConfig(1, 0, pc.plan)
		ref.Ticks = ticks
		ref.Durable = storage.NewMemStore()
		serial, want := digestRun(t, ref)
		if serial.Results == 0 {
			t.Fatalf("%s: serial reference produced no results; workload broken", pc.label)
		}
		for crash := int64(0); crash < ticks; crash++ {
			plan := pc.plan
			plan.CrashTicks = []int64{crash}
			cfg := detConfig(8, 8, plan)
			cfg.Ticks = ticks
			cfg.Durable = storage.NewMemStore()
			res, d := runThroughCrashes(t, cfg)
			label := pc.label + " crash@" + string(rune('0'+crash/10)) + string(rune('0'+crash%10))
			assertSameResultSet(t, label, serial, res, want, d)
			if res.StateLost != 0 {
				t.Errorf("%s: StateLost = %d, want 0 with durability on", label, res.StateLost)
			}
			assertConserved(t, label, cfg, res)
			if !res.Crashed && res.ResumedTick != crash+1 {
				t.Errorf("%s: final segment resumed at %d, want %d", label, res.ResumedTick, crash+1)
			}
		}
	}
}

// TestCrashSweepAcrossDispatchBatch: the durable crash/recover cycle must
// be grain-independent too — a crash can land while worker deques hold any
// amount of stolen work, and recovery replays from the WAL regardless. A
// few representative crash points at the extreme hand-off grains, chaos on.
func TestCrashSweepAcrossDispatchBatch(t *testing.T) {
	const ticks = 25
	ref := detConfig(1, 0, sweepChaos())
	ref.Ticks = ticks
	ref.Durable = storage.NewMemStore()
	serial, want := digestRun(t, ref)
	if serial.Results == 0 {
		t.Fatal("serial reference produced no results; workload broken")
	}
	for _, batch := range []int{1, 256} {
		for _, crash := range []int64{0, 7, 19} {
			plan := sweepChaos()
			plan.CrashTicks = []int64{crash}
			cfg := detConfig(8, 8, plan)
			cfg.Ticks = ticks
			cfg.DispatchBatch = batch
			cfg.Durable = storage.NewMemStore()
			res, d := runThroughCrashes(t, cfg)
			label := fmt.Sprintf("batch=%d crash@%d", batch, crash)
			assertSameResultSet(t, label, serial, res, want, d)
			if res.StateLost != 0 {
				t.Errorf("%s: StateLost = %d, want 0 with durability on", label, res.StateLost)
			}
			assertConserved(t, label, cfg, res)
		}
	}
}

// TestRecoverThroughRepeatedCrashes: a plan with several crash points is
// survived by chaining Recover, still landing on the serial digest.
func TestRecoverThroughRepeatedCrashes(t *testing.T) {
	const ticks = 40
	plan := sweepChaos()
	ref := detConfig(1, 0, plan)
	ref.Ticks = ticks
	ref.Durable = storage.NewMemStore()
	serial, want := digestRun(t, ref)

	plan.CrashTicks = []int64{3, 11, 12, 29}
	cfg := detConfig(8, 8, plan)
	cfg.Ticks = ticks
	cfg.Durable = storage.NewMemStore()
	res, d := runThroughCrashes(t, cfg)
	assertSameResultSet(t, "multi-crash", serial, res, want, d)
	if res.StateLost != 0 {
		t.Errorf("multi-crash: StateLost = %d, want 0", res.StateLost)
	}
	assertConserved(t, "multi-crash", cfg, res)
}

// TestFileStoreCrashRecoverAcrossReopen is the whole-process restart
// model: the crashed segment's store is closed (the process died), and
// Recover runs against a fresh OpenFileStore of the same directory —
// torn-tail scan, checkpoint reload and WAL replay all through the real
// file path.
func TestFileStoreCrashRecoverAcrossReopen(t *testing.T) {
	const ticks = 20
	dir := t.TempDir()
	ref := detConfig(1, 0, fault.None)
	ref.Ticks = ticks
	ref.Durable = storage.NewMemStore()
	serial, want := digestRun(t, ref)

	fs, err := storage.OpenFileStore(dir, storage.WithSyncEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.Plan{CrashTicks: []int64{9}}
	cfg := detConfig(4, 8, plan)
	cfg.Ticks = ticks
	cfg.Durable = fs
	d := &resultDigest{}
	cfg.OnResult = d.add
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || res.CrashTick != 9 {
		t.Fatalf("Run: Crashed=%v CrashTick=%d, want crash at 9", res.Crashed, res.CrashTick)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := storage.OpenFileStore(dir, storage.WithSyncEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	cfg.Durable = fs2
	res, err = Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("Recover crashed again with no crash scheduled")
	}
	assertSameResultSet(t, "filestore reopen", serial, res, want, d)
	assertConserved(t, "filestore reopen", cfg, res)

	audit, err := AuditStore(fs2, 4)
	if err != nil {
		t.Fatalf("AuditStore: %v", err)
	}
	if audit.IngestRecords != res.TuplesIngested {
		t.Errorf("WAL holds %d ingest records, run ingested %d", audit.IngestRecords, res.TuplesIngested)
	}
	if audit.LastTick != ticks-1 {
		t.Errorf("last durable tick %d, want %d", audit.LastTick, ticks-1)
	}
}

// TestCrashTicksRequireDurable: a crash schedule without a store to
// recover from is a configuration error, not a silent data loss.
func TestCrashTicksRequireDurable(t *testing.T) {
	cfg := detConfig(1, 0, fault.Plan{CrashTicks: []int64{5}})
	if _, err := Run(cfg); err == nil {
		t.Fatal("CrashTicks without Durable accepted")
	}
	cfg = detConfig(1, 0, fault.Plan{CrashTicks: []int64{9, 5}})
	cfg.Durable = storage.NewMemStore()
	if _, err := Run(cfg); err == nil {
		t.Fatal("descending CrashTicks accepted")
	}
	if _, err := Recover(detConfig(1, 0, fault.None)); err == nil {
		t.Fatal("Recover without Durable accepted")
	}
	// Recover against an empty store has nothing to resume.
	cfg = detConfig(1, 0, fault.None)
	cfg.Durable = storage.NewMemStore()
	if _, err := Recover(cfg); err == nil {
		t.Fatal("Recover from empty store accepted")
	}
}

// TestAuditStoreAccountsCleanRun: the audit's WAL accounting matches the
// live run's counters exactly on a clean durable run.
func TestAuditStoreAccountsCleanRun(t *testing.T) {
	st := storage.NewMemStore()
	cfg := detConfig(2, 0, fault.None)
	cfg.Ticks = 30
	cfg.Durable = st
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := AuditStore(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if audit.IngestRecords != res.TuplesIngested {
		t.Errorf("WAL ingest records %d != ingested %d", audit.IngestRecords, res.TuplesIngested)
	}
	if audit.TickRecords != 30 || audit.LastTick != 29 {
		t.Errorf("tick records %d last %d, want 30 through 29", audit.TickRecords, audit.LastTick)
	}
	if len(audit.Checkpoints) == 0 {
		t.Error("no checkpoints persisted over 30 ticks with CheckpointEvery=64")
	}
}

// TestCodecRoundTrips pins the wire formats: tick records, ingest records
// and operator checkpoints decode back to what was encoded.
func TestCodecRoundTrips(t *testing.T) {
	tup := &tuple.Tuple{Stream: 2, Seq: 77, TS: 1234, Arrival: 991, Attrs: []tuple.Value{5, 0, 19}, PayloadBytes: 40}
	ing, tick, err := decodeWALRecord(encodeIngestRecord(3, tup))
	if err != nil || tick != nil {
		t.Fatalf("ingest decode: %v (tick=%v)", err, tick)
	}
	if ing.Op != 3 || !reflect.DeepEqual(ing.Tuple, tup) {
		t.Fatalf("ingest round-trip: %+v", ing)
	}

	tr := &tickRecord{Tick: 41, Inj: []uint64{9, 8, 7}}
	for i := range tr.Counters {
		tr.Counters[i] = uint64(100 + i)
	}
	tr.PerOp = []opTickState{
		{Sheds: 1, Probes: 2, Retunes: 3, Aborts: 4, Restarts: 5, Failed: true},
		{Probes: 9},
	}
	_, tr2, err := decodeWALRecord(tr.encode())
	if err != nil {
		t.Fatalf("tick decode: %v", err)
	}
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatalf("tick round-trip:\n got %+v\nwant %+v", tr2, tr)
	}

	ck := &opCheckpoint{Op: 1, Applied: 512, Cfg: bitindex.Config{Bits: []uint8{4, 0, 3}}, Tuples: []*tuple.Tuple{tup}}
	ck2, err := decodeOpCheckpoint(ck.encode())
	if err != nil {
		t.Fatalf("checkpoint decode: %v", err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Fatalf("checkpoint round-trip:\n got %+v\nwant %+v", ck2, ck)
	}
	if _, err := decodeOpCheckpoint(ck.encode()[:10]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCorruptCheckpointCountIsAnError: checkpoint blobs carry no CRC (only
// WAL frames do), so a damaged tuple-count word reaches the decoder. It
// must come back as an error from Recover — before the bounds check the
// count went straight to make() and 0xFFFFFFFF killed the process with an
// unrecoverable out-of-memory fault.
func TestCorruptCheckpointCountIsAnError(t *testing.T) {
	st := storage.NewMemStore()
	cfg := detConfig(1, 0, fault.Plan{CrashTicks: []int64{12}})
	cfg.Ticks = 20
	cfg.Durable = st
	if res, err := Run(cfg); err != nil || !res.Crashed {
		t.Fatalf("Run: %v (result %+v)", err, res)
	}
	blob, ok, err := st.LoadCheckpoint(0)
	if err != nil || !ok {
		t.Fatalf("operator 0 has no checkpoint to corrupt (ok=%v err=%v)", ok, err)
	}
	count := 15 + int(binary.LittleEndian.Uint16(blob[13:15]))
	for _, n := range []uint32{0xFFFFFFFF, binary.LittleEndian.Uint32(blob[count:]) + 1} {
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint32(bad[count:], n)
		if _, err := decodeOpCheckpoint(bad); err == nil {
			t.Errorf("checkpoint claiming %d tuples in %d bytes decoded", n, len(bad))
		}
		if err := st.SaveCheckpoint(0, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(cfg); err == nil {
			t.Errorf("Recover accepted a checkpoint claiming %d tuples in %d bytes", n, len(bad))
		}
	}
}

// TestCheckpointBytesReproducible: the same state must serialize to the same
// bytes. A snapshot that walks the retention map in iteration order encodes
// one state differently run to run, and a restore re-inserts in that order,
// so bucket-internal order after a restart would be run-dependent too.
func TestCheckpointBytesReproducible(t *testing.T) {
	checkpoints := func() [][]byte {
		st := storage.NewMemStore()
		cfg := detConfig(1, 0, fault.None)
		cfg.Ticks = 30
		cfg.Durable = st
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		blobs := make([][]byte, 4)
		for op := range blobs {
			blob, ok, err := st.LoadCheckpoint(op)
			if err != nil || !ok {
				t.Fatalf("operator %d has no checkpoint (ok=%v err=%v)", op, ok, err)
			}
			blobs[op] = blob
		}
		return blobs
	}
	first, second := checkpoints(), checkpoints()
	for op := range first {
		if !bytes.Equal(first[op], second[op]) {
			t.Errorf("operator %d: two identical runs wrote different checkpoint bytes (%d and %d long)",
				op, len(first[op]), len(second[op]))
		}
	}
}

// TestIngestWALBytesScheduleIndependent: what an operator appends to the WAL
// is a function of the workload alone, never of the schedule. The serial
// shape (1 worker, one stripe) and a fanned-out one (4 workers, 8 stripes)
// must leave, operator by operator, the identical sequence of ingest-record
// bytes — recovery replays that sequence, so a schedule-dependent order
// would make the recovered state depend on how the crashed run was sized.
func TestIngestWALBytesScheduleIndependent(t *testing.T) {
	ingestRecords := func(workers, shards int) [][][]byte {
		st := storage.NewMemStore()
		cfg := detConfig(workers, shards, fault.None)
		cfg.Profile.LambdaD = 40 // several checkpoints per operator, mid-tick
		cfg.Ticks = 12
		cfg.Durable = st
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		perOp := make([][][]byte, 4)
		err := st.ReplayWAL(func(rec []byte) error {
			if rec[0] == walKindIngest {
				op := binary.LittleEndian.Uint32(rec[1:5])
				perOp[op] = append(perOp[op], bytes.Clone(rec))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return perOp
	}
	serial, fanned := ingestRecords(1, 0), ingestRecords(4, 8)
	for op := range serial {
		if len(serial[op]) == 0 {
			t.Fatalf("operator %d appended no ingest record; workload broken", op)
		}
		if len(serial[op]) != len(fanned[op]) {
			t.Fatalf("operator %d: %d ingest records at 1 worker, %d at 4 workers x 8 shards",
				op, len(serial[op]), len(fanned[op]))
		}
		for i := range serial[op] {
			if !bytes.Equal(serial[op][i], fanned[op][i]) {
				t.Fatalf("operator %d: ingest record %d differs between 1 worker and 4 workers x 8 shards", op, i)
			}
		}
	}
}
