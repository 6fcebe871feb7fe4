package storage

import (
	"fmt"
	"sync"
)

// CheckpointStore is the durability seam crash recovery stands on: a place
// to persist per-operator checkpoints plus an append-only write-ahead log
// of everything applied since. The contract is deliberately narrow — byte
// payloads in, byte payloads out — so the pipeline owns its own record
// formats and the store owns only framing, integrity and fsync policy.
//
// Durability model (see DESIGN.md §11):
//
//   - SaveCheckpoint atomically replaces operator op's checkpoint; a crash
//     mid-save must leave either the old or the new checkpoint readable,
//     never a torn mix.
//   - AppendWAL appends one non-empty record; an empty one is refused (its
//     CRC frame is eight zero bytes, which is also what a zero-filled tail
//     looks like). Records are durable no later than the next Sync; an
//     implementation may batch fsyncs between Syncs, so a crash can lose a
//     suffix of un-synced appends but never reorder or corrupt the prefix.
//   - ReplayWAL visits every intact record in append order. A torn tail
//     (partial final record from a mid-append crash) is silently dropped,
//     exactly once, at open time — it was never acknowledged as durable.
//
// Implementations must be safe for concurrent use: operator serve
// goroutines append concurrently while the source goroutine syncs.
type CheckpointStore interface {
	// SaveCheckpoint durably replaces operator op's checkpoint blob.
	SaveCheckpoint(op int, data []byte) error
	// LoadCheckpoint reads operator op's checkpoint; ok=false means no
	// checkpoint has ever been saved for op.
	LoadCheckpoint(op int) (data []byte, ok bool, err error)
	// AppendWAL appends one record to the write-ahead log.
	AppendWAL(rec []byte) error
	// ReplayWAL visits every intact record in append order. Returning an
	// error from visit stops the replay and propagates the error.
	ReplayWAL(visit func(rec []byte) error) error
	// ResetWAL discards the log (compaction after a covering checkpoint
	// set; recovery itself never calls it).
	ResetWAL() error
	// Sync makes every prior append durable.
	Sync() error
	// Close releases the store; the data stays readable by a re-open.
	Close() error
}

// MemStore is the in-memory CheckpointStore: exact WAL/checkpoint
// semantics with no disk, for tests and for chaos sweeps where the store
// round-trip (not the filesystem) is what is being exercised. The zero
// value is not usable; call NewMemStore.
type MemStore struct {
	mu    sync.Mutex
	ckpts map[int][]byte
	wal   [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{ckpts: make(map[int][]byte)}
}

// SaveCheckpoint replaces op's checkpoint (the blob is copied).
func (m *MemStore) SaveCheckpoint(op int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ckpts[op] = append([]byte(nil), data...)
	return nil
}

// LoadCheckpoint returns a copy of op's checkpoint.
func (m *MemStore) LoadCheckpoint(op int) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.ckpts[op]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// AppendWAL appends a copy of the record.
func (m *MemStore) AppendWAL(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("storage: empty wal record")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wal = append(m.wal, append([]byte(nil), rec...))
	return nil
}

// ReplayWAL visits the records in append order.
func (m *MemStore) ReplayWAL(visit func(rec []byte) error) error {
	m.mu.Lock()
	wal := m.wal
	m.mu.Unlock()
	for _, rec := range wal {
		if err := visit(rec); err != nil {
			return err
		}
	}
	return nil
}

// ResetWAL discards the log.
func (m *MemStore) ResetWAL() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wal = nil
	return nil
}

// Sync is a no-op: memory is always "durable" within the process.
func (m *MemStore) Sync() error { return nil }

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// WALRecords returns how many records the log holds (test accounting).
func (m *MemStore) WALRecords() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.wal)
}

var _ CheckpointStore = (*MemStore)(nil)

// FlakyStore wraps a CheckpointStore and silently drops every Nth WAL
// append — a deterministic model of a broken durability layer (a disk that
// acknowledges writes it loses). It exists so the chaos harness has a real,
// reproducible invariant violation to find and minimize: with a flaky store
// the recovered state misses tuples, and the digest/conservation checks
// must catch it. DropEvery <= 1 drops nothing.
type FlakyStore struct {
	CheckpointStore
	// DropEvery drops the k-th append for every k divisible by DropEvery
	// (1-based), so DropEvery=10 loses 10% of the log.
	DropEvery int

	mu      sync.Mutex
	appends int
	dropped int
}

// AppendWAL counts the append and drops it when the schedule says so.
func (f *FlakyStore) AppendWAL(rec []byte) error {
	f.mu.Lock()
	f.appends++
	drop := f.DropEvery > 1 && f.appends%f.DropEvery == 0
	if drop {
		f.dropped++
	}
	f.mu.Unlock()
	if drop {
		return nil // acknowledged, never written: the lying disk
	}
	return f.CheckpointStore.AppendWAL(rec)
}

// Dropped returns how many appends the store has lost so far.
func (f *FlakyStore) Dropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

var _ CheckpointStore = (*FlakyStore)(nil)

// ErrClosed is returned by operations on a closed file-backed store.
var ErrClosed = fmt.Errorf("storage: checkpoint store is closed")
