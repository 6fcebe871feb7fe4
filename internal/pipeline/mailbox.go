// Package pipeline is the concurrent twin of internal/engine: the same
// adaptive multi-route system run as a live Go program — one goroutine per
// STeM operator applying its arrivals from a bounded mailbox the source
// fills, a pool of probe workers handing probes over on work-stealing
// deques, a shared router, and self-tuning AMRI states that probes read
// without any operator lock (each pins the live index epoch with one atomic
// load; the index is lock-striped all the way down). Where internal/engine
// measures virtual time deterministically for the paper's figures, pipeline
// measures real wall-clock throughput and demonstrates the system working
// under actual parallelism — including under injected faults: every
// operator goroutine runs beneath a supervisor that recovers panics and
// restarts the operator from a checkpoint, and mailboxes can bound their
// capacity with a pluggable overload policy (see DESIGN.md §8).
package pipeline

import (
	"fmt"
	"sync"
)

// OverloadPolicy selects what a bounded mailbox does with a push that finds
// the mailbox full.
type OverloadPolicy int

const (
	// PolicyBlock applies backpressure: the producer waits until space
	// frees up. The only producer is the workload source, which sits
	// outside the probe graph (probes travel on the worker deques, never
	// through mailboxes), so blocking it cannot deadlock the drain.
	PolicyBlock OverloadPolicy = iota
	// PolicyDropNewest sheds the incoming message.
	PolicyDropNewest
	// PolicyDropOldest evicts the queue head to admit the incoming
	// message — the freshest data wins, as stream systems usually want.
	PolicyDropOldest
)

// String implements fmt.Stringer.
func (p OverloadPolicy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropNewest:
		return "drop-newest"
	case PolicyDropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// ParsePolicy maps a flag string to its OverloadPolicy.
func ParsePolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "drop-newest":
		return PolicyDropNewest, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	default:
		return 0, fmt.Errorf("pipeline: unknown shed policy %q (want block, drop-newest or drop-oldest)", s)
	}
}

// PushResult reports the fate of one pushed message.
type PushResult int

const (
	// PushAccepted: the message was enqueued.
	PushAccepted PushResult = iota
	// PushClosed: the mailbox was closed; the message was NOT enqueued and
	// the caller still owns its accounting.
	PushClosed
	// PushShedNewest: the mailbox was full under PolicyDropNewest; the
	// pushed message itself was shed (reported to onShed).
	PushShedNewest
	// PushShedOldest: the mailbox was full under PolicyDropOldest; the
	// pushed message was enqueued and the old queue head was shed
	// (reported to onShed).
	PushShedOldest
)

// mailbox is an MPSC queue with an optional capacity bound: producers shed
// or wait per the overload policy, and the owning operator drains it until
// Close. The unbounded form (capacity 0) never sheds and never blocks a
// producer.
type mailbox[T any] struct {
	capacity int            // 0 = unbounded
	policy   OverloadPolicy // overload response when capacity > 0
	// onShed observes every message dropped by a full mailbox (the
	// incoming one under drop-newest, the evicted head under drop-oldest).
	// It runs with the mailbox lock held and must not call back in.
	onShed func(T, PushResult)

	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	items    []T
	head     int
	closed   bool
}

func newBoundedMailbox[T any](capacity int, policy OverloadPolicy, onShed func(T, PushResult)) *mailbox[T] {
	m := &mailbox[T]{capacity: capacity, policy: policy, onShed: onShed}
	m.notEmpty = sync.NewCond(&m.mu)
	m.notFull = sync.NewCond(&m.mu)
	return m
}

// pushLocked enqueues one item without blocking; the caller holds mu. A
// full mailbox sheds per the drop policies (PolicyBlock callers wait for
// space first). A closed mailbox refuses the item with PushClosed and the
// caller keeps ownership of it.
func (m *mailbox[T]) pushLocked(v T) PushResult {
	if m.closed {
		return PushClosed
	}
	if m.capacity > 0 && len(m.items)-m.head >= m.capacity {
		switch m.policy {
		case PolicyDropNewest:
			if m.onShed != nil {
				m.onShed(v, PushShedNewest)
			}
			return PushShedNewest
		case PolicyDropOldest:
			victim := m.items[m.head]
			var zero T
			m.items[m.head] = zero
			m.head++
			if m.onShed != nil {
				m.onShed(victim, PushShedOldest)
			}
			m.items = append(m.items, v)
			m.notEmpty.Signal()
			return PushShedOldest
		}
	}
	m.items = append(m.items, v)
	m.notEmpty.Signal()
	return PushAccepted
}

// PushWaitBatch enqueues a whole batch under one lock acquisition, with
// backpressure per item: under PolicyBlock each item waits for space before
// it is enqueued (Cond.Wait releases the lock, so the owner drains
// concurrently). The wait and the push are one critical section, so a batch
// never overshoots the cap. The returned results are positional: a
// PushClosed entry means that item and every later one were refused.
func (m *mailbox[T]) PushWaitBatch(vs []T) []PushResult {
	res := make([]PushResult, len(vs))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range vs {
		if m.policy == PolicyBlock {
			for m.capacity > 0 && len(m.items)-m.head >= m.capacity && !m.closed {
				m.notFull.Wait()
			}
		}
		res[i] = m.pushLocked(v)
	}
	return res
}

// Pop blocks until an item is available or the mailbox is closed and
// drained; ok=false means the operator should exit.
func (m *mailbox[T]) Pop() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head >= len(m.items) && !m.closed {
		m.notEmpty.Wait()
	}
	if m.head >= len(m.items) {
		return v, false
	}
	v = m.items[m.head]
	var zero T
	m.items[m.head] = zero
	m.head++
	if m.head > 1024 && m.head*2 > len(m.items) {
		m.items = append([]T(nil), m.items[m.head:]...)
		m.head = 0
	}
	m.notFull.Signal()
	return v, true
}

// Close wakes all waiters; queued items are still drained by Pop, while new
// pushes are refused with PushClosed.
func (m *mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
}
