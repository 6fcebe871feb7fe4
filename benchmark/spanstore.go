package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"amri/internal/storage"
)

// spanStore is a timing decorator over a storage.CheckpointStore: it
// forwards every call unchanged and records how long the inner store took.
// The storage layer is the one layer traced on the real pipeline, because
// pipeline.Config.Durable is a seam the benchmark can wrap from outside.
// Operator goroutines append concurrently while the source syncs, so the
// accumulators are atomic; only the per-call Sync durations (one per tick
// plus one per checkpoint) are kept individually, for their percentiles.
type spanStore struct {
	inner storage.CheckpointStore

	appends, appendNS, appendBytes atomic.Int64
	saves, saveNS, saveBytes       atomic.Int64
	syncNS                         atomic.Int64

	mu    sync.Mutex
	syncs []time.Duration
}

func newSpanStore(inner storage.CheckpointStore) *spanStore {
	return &spanStore{inner: inner}
}

func (s *spanStore) AppendWAL(rec []byte) error {
	start := time.Now()
	err := s.inner.AppendWAL(rec)
	s.appendNS.Add(int64(time.Since(start)))
	s.appends.Add(1)
	s.appendBytes.Add(int64(len(rec)))
	return err
}

func (s *spanStore) Sync() error {
	start := time.Now()
	err := s.inner.Sync()
	d := time.Since(start)
	s.syncNS.Add(int64(d))
	s.mu.Lock()
	s.syncs = append(s.syncs, d)
	s.mu.Unlock()
	return err
}

func (s *spanStore) SaveCheckpoint(op int, data []byte) error {
	start := time.Now()
	err := s.inner.SaveCheckpoint(op, data)
	s.saveNS.Add(int64(time.Since(start)))
	s.saves.Add(1)
	s.saveBytes.Add(int64(len(data)))
	return err
}

func (s *spanStore) LoadCheckpoint(op int) ([]byte, bool, error) {
	return s.inner.LoadCheckpoint(op)
}

func (s *spanStore) ReplayWAL(visit func(rec []byte) error) error {
	return s.inner.ReplayWAL(visit)
}

func (s *spanStore) ResetWAL() error { return s.inner.ResetWAL() }

func (s *spanStore) Close() error { return s.inner.Close() }

// busy is the summed time spent inside the inner store.
func (s *spanStore) busy() time.Duration {
	return time.Duration(s.appendNS.Load() + s.saveNS.Load() + s.syncNS.Load())
}

// syncQuantiles returns the call count and the p50 / p95 Sync duration.
func (s *spanStore) syncQuantiles() (n int, p50, p95 time.Duration) {
	s.mu.Lock()
	d := append([]time.Duration(nil), s.syncs...)
	s.mu.Unlock()
	if len(d) == 0 {
		return 0, 0, 0
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return len(d), d[len(d)/2], d[len(d)*95/100]
}

var _ storage.CheckpointStore = (*spanStore)(nil)
