package tuple

import (
	"encoding/binary"
	"fmt"
)

// AppendTuple appends t's fixed little-endian wire form to buf and returns
// the extended slice. The layout is
//
//	stream u32 | seq u64 | ts i64 | arrival u64 | payload u32 | nattrs u16 | attrs u64...
//
// — everything a checkpoint or WAL record needs to reconstruct the tuple
// identically, including the Arrival stamp the exactly-once probe filter
// keys on. The pipeline's durability codec (the only one) frames its
// records around this encoding, and bounds untrusted tuple counts by its
// 34-byte minimum.
func AppendTuple(buf []byte, t *Tuple) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Stream))
	buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.TS))
	buf = binary.LittleEndian.AppendUint64(buf, t.Arrival)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.PayloadBytes))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Attrs)))
	for _, v := range t.Attrs {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// DecodeTuple reads one AppendTuple encoding from the front of buf,
// returning the tuple and the remaining bytes.
func DecodeTuple(buf []byte) (*Tuple, []byte, error) {
	const head = 4 + 8 + 8 + 8 + 4 + 2
	if len(buf) < head {
		return nil, nil, fmt.Errorf("tuple: truncated encoding: %d bytes", len(buf))
	}
	t := &Tuple{
		Stream:       int(binary.LittleEndian.Uint32(buf[0:4])),
		Seq:          binary.LittleEndian.Uint64(buf[4:12]),
		TS:           int64(binary.LittleEndian.Uint64(buf[12:20])),
		Arrival:      binary.LittleEndian.Uint64(buf[20:28]),
		PayloadBytes: int(binary.LittleEndian.Uint32(buf[28:32])),
	}
	n := int(binary.LittleEndian.Uint16(buf[32:34]))
	buf = buf[head:]
	if len(buf) < 8*n {
		return nil, nil, fmt.Errorf("tuple: truncated attrs: want %d values, have %d bytes", n, len(buf))
	}
	t.Attrs = make([]Value, n)
	for i := 0; i < n; i++ {
		t.Attrs[i] = binary.LittleEndian.Uint64(buf[8*i : 8*i+8])
	}
	return t, buf[8*n:], nil
}
