package pipeline

import (
	"encoding/binary"
	"fmt"

	"amri/internal/bitindex"
	"amri/internal/tuple"
)

// WAL record kinds. The write-ahead log interleaves two record types:
// ingest records (one per applied arrival, appended by the operator that
// applied it) and tick records (one per completed tick, appended by the
// source goroutine at the boundary, after both phase barriers, just before
// the store Sync). Recovery = per-op checkpoint + that op's ingest-record
// suffix + the last tick record's counters; see DESIGN.md §11.
const (
	walKindIngest byte = 1
	walKindTick   byte = 2
)

// walIngestRecord is one applied arrival: which operator inserted which
// tuple. Replay re-inserts the suffix past each checkpoint's Applied count.
type walIngestRecord struct {
	Op    int
	Tuple *tuple.Tuple
}

func encodeIngestRecord(op int, t *tuple.Tuple) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, walKindIngest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(op))
	return tuple.AppendTuple(buf, t)
}

// opTickState is one operator's contribution to a tick record: everything
// the Result aggregation reads per operator, so a recovered run's final
// counts continue the crashed run's instead of restarting from zero.
type opTickState struct {
	Sheds    uint64
	Probes   uint64
	Retunes  int64
	Aborts   int64
	Restarts int64
	Failed   bool
}

// tickRecord marks simulated tick Tick fully processed and durable: both
// phase barriers passed, every applied arrival's ingest record already in
// the WAL. Counters snapshot the run-level accounting; Inj snapshots the
// fault injector so a recovered run resumes the fault schedule exactly
// (fault.Injector.Snapshot).
type tickRecord struct {
	Tick     int64
	Counters [numTickCounters]uint64
	PerOp    []opTickState
	Inj      []uint64
}

// Tick-record counter slots, in wire order. These restore the run struct's
// padded atomics on recovery.
const (
	tcResults = iota
	tcIngested
	tcIngestShed
	tcProbeShed
	tcIngestLost
	tcProbeLost
	tcRestarts
	tcPermFailed
	tcReplayed
	tcStateLost
	tcDelays
	tcPressure
	numTickCounters
)

func (r *tickRecord) encode() []byte {
	buf := make([]byte, 0, 16+8*numTickCounters+48*len(r.PerOp)+8*len(r.Inj))
	buf = append(buf, walKindTick)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
	for _, c := range r.Counters {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.PerOp)))
	for _, op := range r.PerOp {
		buf = binary.LittleEndian.AppendUint64(buf, op.Sheds)
		buf = binary.LittleEndian.AppendUint64(buf, op.Probes)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Retunes))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Aborts))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Restarts))
		if op.Failed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Inj)))
	for _, v := range r.Inj {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func decodeTickRecord(buf []byte) (*tickRecord, error) {
	if len(buf) < 1+8+8*numTickCounters+4 || buf[0] != walKindTick {
		return nil, fmt.Errorf("pipeline: malformed tick record (%d bytes)", len(buf))
	}
	r := &tickRecord{Tick: int64(binary.LittleEndian.Uint64(buf[1:9]))}
	buf = buf[9:]
	for i := 0; i < numTickCounters; i++ {
		r.Counters[i] = binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
	}
	nops := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < nops*41+4 {
		return nil, fmt.Errorf("pipeline: truncated tick record per-op section")
	}
	r.PerOp = make([]opTickState, nops)
	for i := range r.PerOp {
		r.PerOp[i] = opTickState{
			Sheds:    binary.LittleEndian.Uint64(buf[0:8]),
			Probes:   binary.LittleEndian.Uint64(buf[8:16]),
			Retunes:  int64(binary.LittleEndian.Uint64(buf[16:24])),
			Aborts:   int64(binary.LittleEndian.Uint64(buf[24:32])),
			Restarts: int64(binary.LittleEndian.Uint64(buf[32:40])),
			Failed:   buf[40] != 0,
		}
		buf = buf[41:]
	}
	ninj := int(binary.LittleEndian.Uint32(buf[:4]))
	buf = buf[4:]
	if len(buf) < 8*ninj {
		return nil, fmt.Errorf("pipeline: truncated tick record injector section")
	}
	r.Inj = make([]uint64, ninj)
	for i := range r.Inj {
		r.Inj[i] = binary.LittleEndian.Uint64(buf[8*i : 8*i+8])
	}
	return r, nil
}

// decodeWALRecord dispatches on the record kind.
func decodeWALRecord(buf []byte) (ing *walIngestRecord, tick *tickRecord, err error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("pipeline: empty wal record")
	}
	switch buf[0] {
	case walKindIngest:
		if len(buf) < 5 {
			return nil, nil, fmt.Errorf("pipeline: truncated ingest record")
		}
		op := int(binary.LittleEndian.Uint32(buf[1:5]))
		t, rest, err := tuple.DecodeTuple(buf[5:])
		if err != nil {
			return nil, nil, err
		}
		if len(rest) != 0 {
			return nil, nil, fmt.Errorf("pipeline: %d trailing bytes in ingest record", len(rest))
		}
		return &walIngestRecord{Op: op, Tuple: t}, nil, nil
	case walKindTick:
		r, err := decodeTickRecord(buf)
		return nil, r, err
	default:
		return nil, nil, fmt.Errorf("pipeline: unknown wal record kind %d", buf[0])
	}
}

// opCheckpoint is one operator's durable snapshot: the retained tuples at
// snapshot time, the tuned index configuration they were indexed under,
// and Applied — how many ingest records the snapshot covers, so WAL replay
// knows where this operator's suffix starts.
type opCheckpoint struct {
	Op      int
	Applied uint64
	Cfg     bitindex.Config
	Tuples  []*tuple.Tuple
}

// ckptVersion guards the checkpoint wire format.
const ckptVersion byte = 1

// minTupleBytes is the smallest tuple.AppendTuple encoding (a tuple with no
// attributes): the bound on how many tuples a blob of a given length can
// hold.
const minTupleBytes = 34

func (c *opCheckpoint) encode() []byte {
	buf := make([]byte, 0, 32+len(c.Cfg.Bits)+64*len(c.Tuples))
	buf = append(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Op))
	buf = binary.LittleEndian.AppendUint64(buf, c.Applied)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Cfg.Bits)))
	buf = append(buf, c.Cfg.Bits...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Tuples)))
	for _, t := range c.Tuples {
		buf = tuple.AppendTuple(buf, t)
	}
	return buf
}

func decodeOpCheckpoint(buf []byte) (*opCheckpoint, error) {
	if len(buf) < 1+4+8+2 || buf[0] != ckptVersion {
		return nil, fmt.Errorf("pipeline: malformed checkpoint (%d bytes)", len(buf))
	}
	c := &opCheckpoint{
		Op:      int(binary.LittleEndian.Uint32(buf[1:5])),
		Applied: binary.LittleEndian.Uint64(buf[5:13]),
	}
	nbits := int(binary.LittleEndian.Uint16(buf[13:15]))
	buf = buf[15:]
	if len(buf) < nbits+4 {
		return nil, fmt.Errorf("pipeline: truncated checkpoint config")
	}
	c.Cfg = bitindex.Config{Bits: append([]uint8(nil), buf[:nbits]...)}
	if err := c.Cfg.Validate(nbits); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint config: %w", err)
	}
	ntuples := int(binary.LittleEndian.Uint32(buf[nbits : nbits+4]))
	buf = buf[nbits+4:]
	// Checkpoint files carry no CRC, so the count word is untrusted: bound
	// it by what the remaining bytes can hold before reserving room for it.
	if ntuples > len(buf)/minTupleBytes {
		return nil, fmt.Errorf("pipeline: checkpoint claims %d tuples in %d bytes", ntuples, len(buf))
	}
	c.Tuples = make([]*tuple.Tuple, 0, ntuples)
	for i := 0; i < ntuples; i++ {
		t, rest, err := tuple.DecodeTuple(buf)
		if err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint tuple %d: %w", i, err)
		}
		buf = rest
		c.Tuples = append(c.Tuples, t)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("pipeline: %d trailing bytes in checkpoint", len(buf))
	}
	return c, nil
}
