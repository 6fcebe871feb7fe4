package pipeline

import (
	"sync"
	"testing"

	"amri/internal/fault"
	"amri/internal/tuple"
)

// push1 is a one-item PushWaitBatch: the mailbox has one producer entry
// point, and a batch of one is its single-message case.
func push1[T any](mb *mailbox[T], v T) PushResult {
	return mb.PushWaitBatch([]T{v})[0]
}

func TestMailboxDropNewest(t *testing.T) {
	var shed []int
	mb := newBoundedMailbox[int](2, PolicyDropNewest, func(v int, r PushResult) {
		if r != PushShedNewest {
			t.Errorf("onShed reason = %v, want PushShedNewest", r)
		}
		shed = append(shed, v)
	})
	// One batch straddling the cap: the overflow is shed item by item.
	got := mb.PushWaitBatch([]int{1, 2, 3})
	if got[0] != PushAccepted || got[1] != PushAccepted {
		t.Fatal("pushes under capacity must be accepted")
	}
	if got[2] != PushShedNewest {
		t.Fatalf("push past cap = %v, want PushShedNewest", got[2])
	}
	if len(shed) != 1 || shed[0] != 3 {
		t.Fatalf("shed accounting wrong: shed=%v", shed)
	}
	// The queue keeps the oldest two, in order.
	for _, want := range []int{1, 2} {
		if v, ok := mb.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
}

func TestMailboxDropOldest(t *testing.T) {
	var shed []int
	mb := newBoundedMailbox[int](2, PolicyDropOldest, func(v int, r PushResult) {
		if r != PushShedOldest {
			t.Errorf("onShed reason = %v, want PushShedOldest", r)
		}
		shed = append(shed, v)
	})
	mb.PushWaitBatch([]int{1, 2})
	if got := push1(mb, 3); got != PushShedOldest {
		t.Fatalf("push past cap = %v, want PushShedOldest", got)
	}
	if len(shed) != 1 || shed[0] != 1 {
		t.Fatalf("drop-oldest must evict the head, shed %v", shed)
	}
	// The queue keeps the newest two.
	for _, want := range []int{2, 3} {
		if v, ok := mb.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
}

func TestMailboxPushWaitBackpressure(t *testing.T) {
	mb := newBoundedMailbox[int](1, PolicyBlock, nil)
	push1(mb, 1)
	entered := make(chan struct{})
	released := make(chan PushResult)
	go func() {
		close(entered)
		released <- push1(mb, 2)
	}()
	<-entered
	// The producer is (about to be) parked on a full mailbox; a Pop must
	// release it.
	if v, ok := mb.Pop(); !ok || v != 1 {
		t.Fatal("Pop failed")
	}
	if r := <-released; r != PushAccepted {
		t.Fatalf("PushWaitBatch = %v after space freed", r)
	}
	if v, ok := mb.Pop(); !ok || v != 2 {
		t.Fatalf("waited push not delivered: %d,%v", v, ok)
	}
}

// TestMailboxClosePushRace is the close/push semantics contract under
// contention: producers hammer PushWaitBatch (batches of one and of three)
// while the mailbox closes mid-stream. Every push must resolve to exactly
// one of accepted (and then be drained) or PushClosed (and then NOT be
// drained) — no message may be both refused and delivered, and none may
// vanish unaccounted.
func TestMailboxClosePushRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		mb := newBoundedMailbox[int](4, PolicyBlock, nil)
		const producers, per = 4, 100
		var accepted, refused sync.Map
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(base int) {
				defer wg.Done()
				for i := 0; i < per; {
					batch := []int{base*per + i}
					if i%2 == 1 {
						for len(batch) < 3 && i+len(batch) < per {
							batch = append(batch, base*per+i+len(batch))
						}
					}
					for k, r := range mb.PushWaitBatch(batch) {
						switch r {
						case PushAccepted:
							accepted.Store(batch[k], true)
						case PushClosed:
							refused.Store(batch[k], true)
						default:
							t.Errorf("unexpected push result %v", r)
						}
					}
					i += len(batch)
				}
			}(p)
		}
		// Consumer drains concurrently so a blocked producer never parks
		// forever, then closes the mailbox mid-stream and drains the tail.
		drained := make(map[int]bool)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				v, ok := mb.Pop()
				if !ok {
					return
				}
				drained[v] = true
				if i == 97 {
					mb.Close()
				}
			}
		}()
		wg.Wait()
		mb.Close() // no-op if the consumer already closed
		<-done

		var nAccepted, nRefused int
		accepted.Range(func(k, _ any) bool {
			nAccepted++
			if !drained[k.(int)] {
				t.Fatalf("iter %d: accepted message %d never drained", iter, k)
			}
			return true
		})
		refused.Range(func(k, _ any) bool {
			nRefused++
			if drained[k.(int)] {
				t.Fatalf("iter %d: refused message %d was delivered anyway", iter, k)
			}
			return true
		})
		if nAccepted+nRefused != producers*per {
			t.Fatalf("iter %d: %d+%d pushes accounted, want %d",
				iter, nAccepted, nRefused, producers*per)
		}
		if len(drained) != nAccepted {
			t.Fatalf("iter %d: drained %d != accepted %d", iter, len(drained), nAccepted)
		}
	}
}

// shedRun builds a run whose operator mailboxes hold one message under the
// given drop policy — the real onShed wiring newRun installs, not a copy of
// it — and delivers two arrivals to operator 0 with their wg slots taken.
func shedRun(t *testing.T, policy OverloadPolicy) (p *run, queued, pushed *tuple.Tuple, got PushResult) {
	t.Helper()
	cfg := detConfig(1, 0, fault.None)
	cfg.MailboxCap = 1
	cfg.ShedPolicy = policy
	p, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queued, pushed = &tuple.Tuple{Seq: 1}, &tuple.Tuple{Seq: 2}
	p.wg.Add(2)
	res := p.ops[0].mb.PushWaitBatch([]message{{ingest: queued}, {ingest: pushed}})
	if res[0] != PushAccepted {
		t.Fatalf("push into an empty mailbox = %v", res[0])
	}
	return p, queued, pushed, res[1]
}

// assertOneIngestShed checks the run's shed ledger after shedRun: one
// arrival charged to operator 0 as an ingest shed, nothing to the probe
// side, its wg slot released, and want the mailbox's sole survivor.
func assertOneIngestShed(t *testing.T, p *run, want *tuple.Tuple) {
	t.Helper()
	if in, pr, op := p.ingestShed.Load(), p.probeShed.Load(), p.sheds[0].Load(); in != 1 || pr != 0 || op != 1 {
		t.Fatalf("shed ledger = %d ingest / %d probe / %d on operator 0, want 1 / 0 / 1", in, pr, op)
	}
	v, ok := p.ops[0].mb.Pop()
	if !ok || v.ingest != want {
		t.Fatalf("survivor = %+v, want seq %d", v, want.Seq)
	}
	p.wg.Done() // the survivor's slot; the victim's was released by the hook
	p.wg.Wait()
}

// TestMailboxDropOldestAccountsVictimKind pins the shed-accounting
// contract Run relies on: under drop-oldest the message lost is the EVICTED
// queue head, not the one the pusher was carrying — the hook charges one
// ingest shed to the operator and releases the victim's barrier slot, and
// the pushed arrival is what the operator then applies.
func TestMailboxDropOldestAccountsVictimKind(t *testing.T) {
	p, _, pushed, got := shedRun(t, PolicyDropOldest)
	if got != PushShedOldest {
		t.Fatalf("push past cap = %v, want PushShedOldest", got)
	}
	assertOneIngestShed(t, p, pushed)
}

// TestMailboxDropNewestAccountsPusherKind is the drop-newest twin: the shed
// message IS the pushed one, and the queued arrival survives untouched.
func TestMailboxDropNewestAccountsPusherKind(t *testing.T) {
	p, queued, _, got := shedRun(t, PolicyDropNewest)
	if got != PushShedNewest {
		t.Fatalf("push past cap = %v, want PushShedNewest", got)
	}
	assertOneIngestShed(t, p, queued)
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]OverloadPolicy{
		"block": PolicyBlock, "drop-newest": PolicyDropNewest, "drop-oldest": PolicyDropOldest,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v,%v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must not parse")
	}
}

// TestMailboxCloseMidBatch pins PushWaitBatch's close semantics under a
// racing consumer: when Close lands while the producer is parked mid-batch,
// the results must be a clean bisection — an accepted prefix (every one of
// which the consumer can drain) followed by a PushClosed suffix, nothing
// interleaved, nothing lost, nothing double-owned.
func TestMailboxCloseMidBatch(t *testing.T) {
	const batchLen, cap, popBefore = 100, 4, 20
	for iter := 0; iter < 25; iter++ {
		m := newBoundedMailbox[int](cap, PolicyBlock, nil)
		done := make(chan []PushResult, 1)
		batch := make([]int, batchLen)
		for i := range batch {
			batch[i] = i
		}
		go func() { done <- m.PushWaitBatch(batch) }()

		// Drain a prefix, close mid-batch, then drain whatever landed before
		// the close won the lock.
		popped := 0
		for popped < popBefore {
			v, ok := m.Pop()
			if !ok {
				t.Fatal("mailbox closed before the consumer closed it")
			}
			if v != popped {
				t.Fatalf("FIFO broken: got %d, want %d", v, popped)
			}
			popped++
		}
		m.Close()
		for {
			v, ok := m.Pop()
			if !ok {
				break
			}
			if v != popped {
				t.Fatalf("FIFO broken after close: got %d, want %d", v, popped)
			}
			popped++
		}

		res := <-done
		accepted := 0
		for i, r := range res {
			switch r {
			case PushAccepted:
				if i != accepted {
					t.Fatalf("iter %d: accepts are not a prefix: item %d accepted after a refusal", iter, i)
				}
				accepted++
			case PushClosed:
				// Must stay closed for the rest of the batch; the prefix
				// check above catches any accept that follows.
			default:
				t.Fatalf("iter %d: item %d got unexpected result %d", iter, i, r)
			}
		}
		// Ownership is exact: every accepted item was drained, every refused
		// item was never enqueued.
		if accepted != popped {
			t.Fatalf("iter %d: %d items accepted but %d drained", iter, accepted, popped)
		}
		// The close genuinely bisected the batch: at most cap more items can
		// land between the consumer's last pop and the close.
		if accepted < popBefore || accepted > popBefore+cap {
			t.Fatalf("iter %d: accepted %d, want within [%d, %d]", iter, accepted, popBefore, popBefore+cap)
		}
	}
}
