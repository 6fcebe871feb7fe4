package window

import (
	"testing"
	"testing/quick"

	"amri/internal/tuple"
)

func mk(ts int64) *tuple.Tuple { return tuple.New(0, uint64(ts), ts, nil) }

func TestAddExpireBasics(t *testing.T) {
	b := New(10, 0)
	for ts := int64(0); ts < 5; ts++ {
		b.Add(mk(ts))
	}
	if b.Len() != 5 || b.NumBuckets() != 5 {
		t.Fatalf("Len=%d buckets=%d", b.Len(), b.NumBuckets())
	}
	var dropped []*tuple.Tuple
	n := b.Expire(12, func(x *tuple.Tuple) { dropped = append(dropped, x) })
	// TS <= 2 expires.
	if n != 3 || len(dropped) != 3 {
		t.Fatalf("dropped %d", n)
	}
	for i, x := range dropped {
		if x.TS != int64(i) {
			t.Fatalf("drop order wrong: %v", dropped)
		}
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Expire(12, func(*tuple.Tuple) {}) != 0 {
		t.Fatal("second expire should drop nothing")
	}
}

func TestSlackDelaysExpiry(t *testing.T) {
	b := New(10, 5)
	b.Add(mk(0))
	if b.Expire(12, func(*tuple.Tuple) {}) != 0 {
		t.Fatal("slack should retain the tuple at now=12")
	}
	if b.Expire(15, func(*tuple.Tuple) {}) != 1 {
		t.Fatal("tuple should expire at now=15 (0 <= 15-10-5)")
	}
	if b.Window() != 10 || b.Slack() != 5 {
		t.Fatal("accessors wrong")
	}
	b.SetSlack(0)
	if b.Slack() != 0 {
		t.Fatal("SetSlack failed")
	}
}

func TestOutOfOrderAdds(t *testing.T) {
	b := New(10, 0)
	b.Add(mk(100))
	b.Add(mk(50)) // late
	if b.Expire(65, func(*tuple.Tuple) {}) != 1 {
		t.Fatal("the late tuple alone should expire")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestEmptyExpire(t *testing.T) {
	b := New(10, 0)
	if b.Expire(1000, func(*tuple.Tuple) {}) != 0 {
		t.Fatal("empty buckets should drop nothing")
	}
}

func TestMemBytesTracksContent(t *testing.T) {
	b := New(10, 0)
	m0 := b.MemBytes()
	b.Add(mk(1))
	if b.MemBytes() <= m0 {
		t.Fatal("MemBytes should grow")
	}
	b.Expire(100, func(*tuple.Tuple) {})
	if b.MemBytes() != m0 {
		t.Fatal("MemBytes should shrink back")
	}
}

// Property: after any add sequence and a full expiry sweep, exactly the
// tuples with TS > now-window-slack remain.
func TestExpiryExactness(t *testing.T) {
	f := func(tss []uint8, now8 uint8, win8, slack8 uint8) bool {
		win := int64(win8%20) + 1
		slack := int64(slack8 % 5)
		now := int64(now8)
		b := New(win, slack)
		for _, ts := range tss {
			b.Add(mk(int64(ts)))
		}
		b.Expire(now, func(*tuple.Tuple) {})
		wantLive := 0
		for _, ts := range tss {
			if int64(ts) > now-win-slack {
				wantLive++
			}
		}
		return b.Len() == wantLive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: whatever was added (in any order, late arrivals below an
// already-advanced minimum included) and expired, EachOrdered visits exactly
// the retained tuples, ascending by timestamp and in insertion order within
// one — the order checkpoints are written in.
func TestEachOrderedVisitsRetainedInTimestampOrder(t *testing.T) {
	f := func(tss, late []uint8, now8 uint8) bool {
		b := New(10, 2)
		seq := uint64(0)
		add := func(ts uint8) {
			b.Add(tuple.New(0, seq, int64(ts), nil))
			seq++
		}
		for _, ts := range tss {
			add(ts)
		}
		b.Expire(int64(now8), func(*tuple.Tuple) {})
		for _, ts := range late {
			add(ts)
		}
		var got []*tuple.Tuple
		b.EachOrdered(func(x *tuple.Tuple) { got = append(got, x) })
		if len(got) != b.Len() {
			return false
		}
		for i := 1; i < len(got); i++ {
			p, q := got[i-1], got[i]
			if p.TS > q.TS || (p.TS == q.TS && p.Seq >= q.Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	empty := New(10, 0)
	empty.EachOrdered(func(*tuple.Tuple) { t.Fatal("empty buckets visited a tuple") })
}
