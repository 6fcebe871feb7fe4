package pipeline

import (
	"bytes"
	"testing"

	"amri/internal/bitindex"
	"amri/internal/tuple"
)

// The durable store hands recovery whatever bytes the disk kept. WAL frames
// are CRC-guarded, checkpoint files are not, and neither guard is the
// decoder's excuse: arbitrary bytes must yield an error — never a panic, and
// never an allocation the input's own length does not justify.

func fuzzTuple() *tuple.Tuple {
	return &tuple.Tuple{Stream: 2, Seq: 77, TS: 1234, Arrival: 991, Attrs: []tuple.Value{5, 0, 19}, PayloadBytes: 40}
}

func FuzzDecodeWALRecord(f *testing.F) {
	f.Add(encodeIngestRecord(3, fuzzTuple()))
	tr := &tickRecord{Tick: 41, Inj: []uint64{9, 8, 7}, PerOp: []opTickState{
		{Sheds: 1, Probes: 2, Retunes: 3, Aborts: 4, Restarts: 5, Failed: true},
		{Probes: 9},
	}}
	f.Add(tr.encode())
	f.Add((&tickRecord{}).encode())
	f.Add([]byte{})
	f.Add([]byte{walKindTick})
	f.Fuzz(func(t *testing.T, data []byte) {
		ing, tick, err := decodeWALRecord(data)
		switch {
		case err != nil:
			if ing != nil || tick != nil {
				t.Fatalf("error %v came with a record", err)
			}
		case (ing == nil) == (tick == nil):
			t.Fatalf("decode returned ingest=%v tick=%v, want exactly one", ing, tick)
		case ing != nil:
			if again := encodeIngestRecord(ing.Op, ing.Tuple); !bytes.Equal(again, data) {
				t.Fatalf("ingest record does not round-trip: %x -> %x", data, again)
			}
		case 41*len(tick.PerOp)+8*len(tick.Inj) > len(data):
			t.Fatalf("%d-byte tick record decoded to %d operators and %d injector words",
				len(data), len(tick.PerOp), len(tick.Inj))
		}
	})
}

func FuzzDecodeOpCheckpoint(f *testing.F) {
	tup := fuzzTuple()
	full := &opCheckpoint{Op: 1, Applied: 512, Cfg: bitindex.Config{Bits: []uint8{4, 0, 3}}, Tuples: []*tuple.Tuple{tup, tup}}
	f.Add(full.encode())
	f.Add((&opCheckpoint{Cfg: bitindex.Config{Bits: []uint8{12}}}).encode())
	f.Add(full.encode()[:40])
	f.Add([]byte{ckptVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeOpCheckpoint(data)
		if err != nil {
			return
		}
		if cap(ck.Tuples) > len(data)/minTupleBytes {
			t.Fatalf("%d-byte checkpoint reserved room for %d tuples", len(data), cap(ck.Tuples))
		}
		// AuditStore's property: what decodes re-encodes to the same bytes.
		if again := ck.encode(); !bytes.Equal(again, data) {
			t.Fatalf("checkpoint does not round-trip: %d bytes re-encode to %d", len(data), len(again))
		}
	})
}
