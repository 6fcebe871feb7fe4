package pipeline

import (
	"bytes"
	"fmt"

	"amri/internal/storage"
	"amri/internal/tuple"
)

// tickRecordNow snapshots the run's accounting at a tick boundary. Both
// phase barriers have passed, so no message is in flight; supervisors may
// still be mid-backoff after a late panic, but every counter read here is
// atomic (or lock-guarded, for the per-op retune reads) and the state the
// record describes is exactly what the WAL's ingest records up to this
// point rebuild.
func (p *run) tickRecordNow(tick int64) *tickRecord {
	r := &tickRecord{Tick: tick}
	r.Counters[tcResults] = p.results.Load()
	r.Counters[tcIngested] = p.ingested.Load()
	r.Counters[tcIngestShed] = p.ingestShed.Load()
	r.Counters[tcProbeShed] = p.probeShed.Load()
	r.Counters[tcIngestLost] = p.ingestLost.Load()
	r.Counters[tcProbeLost] = p.probeLost.Load()
	r.Counters[tcRestarts] = p.restarts.Load()
	r.Counters[tcPermFailed] = p.permFailed.Load()
	r.Counters[tcReplayed] = p.replayed.Load()
	r.Counters[tcStateLost] = p.stateLost.Load()
	r.Counters[tcDelays] = p.delays.Load()
	r.Counters[tcPressure] = p.pressure.Load()
	r.PerOp = make([]opTickState, p.n)
	for i, o := range p.ops {
		r.PerOp[i] = opTickState{
			Sheds:    p.sheds[i].Load(),
			Probes:   o.probes.Load(),
			Retunes:  int64(o.retunes()),
			Aborts:   int64(o.migrationAborts()),
			Restarts: o.restarts.Load(),
			Failed:   o.failed.Load(),
		}
	}
	r.Inj = p.inj.Snapshot()
	return r
}

// Recover resumes a crashed durable run: it rebuilds every operator from
// the store (checkpoint + WAL suffix), republishes the epoch pointers,
// restores the run counters and the fault injector's schedule from the
// last tick record, fast-forwards the workload generator, and executes the
// remaining ticks. cfg must be the same Config the crashed Run was given
// (same store included). The returned Result continues the crashed run's
// cumulative accounting — and may itself have Crashed set if the plan
// schedules another crash later; call Recover again until it does not.
func Recover(cfg Config) (*Result, error) {
	if cfg.Durable == nil {
		return nil, fmt.Errorf("pipeline: Recover requires Config.Durable")
	}
	p, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	resume, err := p.restoreFromStore()
	if err != nil {
		return nil, err
	}
	if resume > cfg.Ticks {
		return nil, fmt.Errorf("pipeline: durable state runs through tick %d but the config stops at %d; wrong store for this config", resume-1, cfg.Ticks)
	}
	// resume == cfg.Ticks is legal: the process died at the final boundary
	// with every tick already durable. execute's loop body never runs; the
	// spawned operators just drain and the restored accounting is returned.
	return p.execute(resume)
}

// restoreFromStore rebuilds the run from the durable store and returns the
// tick to resume at (last durable tick + 1).
func (p *run) restoreFromStore() (int64, error) {
	// One pass over the WAL: per-op ingest tuple lists in append order,
	// plus the newest tick record (the resume point).
	perOp := make([][]*tuple.Tuple, p.n)
	var last *tickRecord
	err := p.store.ReplayWAL(func(rec []byte) error {
		ing, tick, err := decodeWALRecord(rec)
		if err != nil {
			return err
		}
		if tick != nil {
			last = tick
			return nil
		}
		if ing.Op < 0 || ing.Op >= p.n {
			return fmt.Errorf("pipeline: wal ingest record for unknown operator %d", ing.Op)
		}
		perOp[ing.Op] = append(perOp[ing.Op], ing.Tuple)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if last == nil {
		return 0, fmt.Errorf("pipeline: no durable tick record to resume from")
	}
	if len(last.PerOp) != p.n {
		return 0, fmt.Errorf("pipeline: tick record covers %d operators, run has %d", len(last.PerOp), p.n)
	}

	// Run-level counters continue where the crashed run stopped.
	p.results.Store(last.Counters[tcResults])
	p.ingested.Store(last.Counters[tcIngested])
	p.ingestShed.Store(last.Counters[tcIngestShed])
	p.probeShed.Store(last.Counters[tcProbeShed])
	p.ingestLost.Store(last.Counters[tcIngestLost])
	p.probeLost.Store(last.Counters[tcProbeLost])
	p.restarts.Store(last.Counters[tcRestarts])
	p.permFailed.Store(last.Counters[tcPermFailed])
	p.replayed.Store(last.Counters[tcReplayed])
	p.stateLost.Store(last.Counters[tcStateLost])
	p.delays.Store(last.Counters[tcDelays])
	p.pressure.Store(last.Counters[tcPressure])
	if err := p.inj.Restore(last.Inj); err != nil {
		return 0, err
	}

	for i, o := range p.ops {
		st := last.PerOp[i]
		p.sheds[i].Store(st.Sheds)
		o.probes.Store(st.Probes)
		o.restarts.Store(st.Restarts)
		o.mu.Lock()
		o.retunesBase = int(st.Retunes)
		o.abortsBase = int(st.Aborts)
		o.mu.Unlock()
		if st.Failed {
			// A pre-crash permanent failure survives recovery: the verdict
			// was rendered and counted; the operator comes back empty and
			// its supervisor goes straight to the backlog drain.
			o.failed.Store(true)
			o.length.Store(0)
			continue
		}
		if err := p.rebuildOperator(o, perOp[i]); err != nil {
			return 0, err
		}
	}

	// Fast-forward the workload source: the generator is stateful (per
	// stream rngs, sequence numbers, global arrival stamps), so replaying
	// the consumed ticks and discarding them puts it exactly where the
	// crashed run's source stood.
	resume := last.Tick + 1
	for t := int64(0); t < resume; t++ {
		p.gen.Tick(t)
	}
	p.curTick.Store(resume)
	return resume, nil
}

// rebuildOperator reloads one operator's state from the store: the
// checkpoint's tuned config is forced onto the fresh index, then
// rebuildLocked — the supervisor restart's routine — reloads the
// checkpointed tuples and replays the WAL suffix past the checkpoint's
// Applied cursor.
func (p *run) rebuildOperator(o *operator, walTuples []*tuple.Tuple) error {
	ck := &opCheckpoint{Op: o.id} // no checkpoint yet: the whole WAL is the suffix
	blob, found, err := p.store.LoadCheckpoint(o.id)
	if err != nil {
		return err
	}
	if found {
		if ck, err = decodeOpCheckpoint(blob); err != nil {
			return err
		}
		if ck.Op != o.id {
			return fmt.Errorf("pipeline: checkpoint slot %d holds operator %d's state", o.id, ck.Op)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if found {
		if err := o.ix.ForceConfig(ck.Cfg); err != nil {
			return err
		}
	}
	// The suffix: ingest records past the checkpoint cursor. A suffix
	// shorter than the cursor means the store lost acknowledged appends
	// (e.g. the chaos harness's flaky store); recovery proceeds with what
	// is there so the invariant checks can convict the store — the loss
	// shows up as a digest/conservation violation, not a crash here.
	suffix := walTuples[min(int(ck.Applied), len(walTuples)):]
	o.rebuildLocked(o.ix, ck.Tuples, suffix)
	o.checkpoint = ck.Tuples
	o.applied = ck.Applied + uint64(len(suffix))
	o.sinceCkpt = len(suffix)
	o.tail = append([]*tuple.Tuple(nil), suffix...)
	p.recovered.Add(ck.Applied + uint64(len(suffix)))
	return nil
}

// StoreAudit is AuditStore's accounting of a durable store's contents,
// cross-checked by the chaos harness against the live run's counters.
type StoreAudit struct {
	// IngestRecords is the WAL's total applied-arrival records; PerOp
	// splits it by operator. A healthy store's total equals the run's
	// TuplesIngested exactly (one record per applied arrival).
	IngestRecords uint64
	PerOp         []uint64
	// TickRecords counts boundary records; LastTick is the newest one's
	// tick (-1 when none exists).
	TickRecords int
	LastTick    int64
	// Checkpoints lists the operators with a decodable checkpoint.
	Checkpoints []int
}

// AuditStore re-reads a durable store and verifies round-trip fidelity:
// every WAL record must decode, every checkpoint must decode and re-encode
// byte-identically, and every checkpoint cursor must be covered by the WAL
// (Applied never exceeds that op's ingest records — a violation means the
// store acknowledged appends it lost). It returns the store's accounting
// for the caller to cross-check against the run's.
func AuditStore(store storage.CheckpointStore, numOps int) (*StoreAudit, error) {
	a := &StoreAudit{PerOp: make([]uint64, numOps), LastTick: -1}
	err := store.ReplayWAL(func(rec []byte) error {
		ing, tick, err := decodeWALRecord(rec)
		if err != nil {
			return err
		}
		if tick != nil {
			a.TickRecords++
			if tick.Tick < a.LastTick {
				return fmt.Errorf("pipeline: tick records out of order: %d after %d", tick.Tick, a.LastTick)
			}
			a.LastTick = tick.Tick
			return nil
		}
		if ing.Op < 0 || ing.Op >= numOps {
			return fmt.Errorf("pipeline: wal ingest record for unknown operator %d", ing.Op)
		}
		a.IngestRecords++
		a.PerOp[ing.Op]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for op := 0; op < numOps; op++ {
		blob, ok, err := store.LoadCheckpoint(op)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ck, err := decodeOpCheckpoint(blob)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint %d: %w", op, err)
		}
		if again := ck.encode(); !bytes.Equal(again, blob) {
			return nil, fmt.Errorf("pipeline: checkpoint %d does not round-trip: %d bytes re-encode to %d", op, len(blob), len(again))
		}
		if ck.Applied > a.PerOp[op] {
			return nil, fmt.Errorf("pipeline: checkpoint %d covers %d applied arrivals but the WAL holds only %d", op, ck.Applied, a.PerOp[op])
		}
		a.Checkpoints = append(a.Checkpoints, op)
	}
	return a, nil
}
