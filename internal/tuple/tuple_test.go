package tuple

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewAndAccessors(t *testing.T) {
	tp := New(2, 7, 100, []Value{10, 20, 30})
	if tp.Stream != 2 || tp.Seq != 7 || tp.TS != 100 {
		t.Fatalf("identity fields wrong: %+v", tp)
	}
	if tp.Arity() != 3 {
		t.Fatalf("Arity = %d, want 3", tp.Arity())
	}
	for i, want := range []Value{10, 20, 30} {
		if got := tp.Attr(i); got != want {
			t.Errorf("Attr(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestNewRightSizedBlocks pins New's storage contract at both sides of every
// arity-class edge: Attrs is exactly the arity long with no spare capacity,
// up to inlineAttrs values are copied into the tuple's own block in a single
// allocation, and wider tuples adopt the caller's slice.
func TestNewRightSizedBlocks(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		src := make([]Value, n, n+3)
		for i := range src {
			src[i] = Value(100 + i)
		}
		tp := New(1, 2, 3, src)
		if tp.Stream != 1 || tp.Seq != 2 || tp.TS != 3 {
			t.Fatalf("arity %d: identity fields wrong: %+v", n, tp)
		}
		if len(tp.Attrs) != n || cap(tp.Attrs) != n {
			t.Fatalf("arity %d: len %d cap %d, want both %d", n, len(tp.Attrs), cap(tp.Attrs), n)
		}
		for i := range src {
			src[i] = 0
		}
		for i, v := range tp.Attrs {
			switch owned := v == Value(100+i); {
			case n <= inlineAttrs && !owned:
				t.Fatalf("arity %d: Attrs[%d] = %d after the caller reused its slice, want a private copy", n, i, v)
			case n > inlineAttrs && owned:
				t.Fatalf("arity %d: Attrs[%d] was copied, want the caller's slice kept", n, i)
			}
		}
		if n > inlineAttrs {
			continue
		}
		if allocs := testing.AllocsPerRun(100, func() { sink = New(0, 0, 0, src) }); allocs != 1 {
			t.Errorf("arity %d: New allocates %v times, want 1", n, allocs)
		}
	}
}

var sink *Tuple

// TestBlockSizeClasses keeps each co-allocated block inside the allocator
// size class New's comment promises, so a new Tuple field cannot silently
// push every tuple of an arity class into the next one up.
func TestBlockSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
	}{
		{"tupleBlock2", unsafe.Sizeof(tupleBlock2{}), 80},
		{"tupleBlock4", unsafe.Sizeof(tupleBlock4{}), 96},
		{"tupleBlock8", unsafe.Sizeof(tupleBlock8{}), 128},
	} {
		if c.size > c.class {
			t.Errorf("%s is %d bytes, over its %d-byte size class", c.name, c.size, c.class)
		}
	}
}

func TestMemBytes(t *testing.T) {
	tp := New(0, 0, 0, []Value{1, 2})
	tp.PayloadBytes = 100
	want := perTupleOverhead + 16 + 100
	if got := tp.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
}

func TestMemBytesGrowsWithArity(t *testing.T) {
	small := New(0, 0, 0, []Value{1})
	big := New(0, 0, 0, []Value{1, 2, 3, 4})
	if small.MemBytes() >= big.MemBytes() {
		t.Fatalf("memory should grow with arity: %d vs %d", small.MemBytes(), big.MemBytes())
	}
}

func TestTupleString(t *testing.T) {
	tp := New(1, 5, 42, []Value{9, 8})
	s := tp.String()
	for _, frag := range []string{"s1", "#5", "@42", "9,8"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestCompositeLifecycle(t *testing.T) {
	a := New(0, 1, 0, []Value{1})
	b := New(1, 1, 0, []Value{1})
	c := New(2, 1, 0, []Value{1})

	comp := NewComposite(3, a)
	if !comp.Has(0) || comp.Has(1) || comp.Has(2) {
		t.Fatalf("fresh composite coverage wrong: %b", comp.Done)
	}
	if comp.Count() != 1 {
		t.Fatalf("Count = %d, want 1", comp.Count())
	}
	if comp.Complete(3) {
		t.Fatal("one-part composite should not be complete")
	}

	comp2 := comp.Extend(b)
	if comp.Has(1) {
		t.Fatal("Extend must not mutate the original composite")
	}
	if !comp2.Has(0) || !comp2.Has(1) {
		t.Fatalf("extended composite coverage wrong: %b", comp2.Done)
	}

	comp3 := comp2.Extend(c)
	if !comp3.Complete(3) {
		t.Fatal("three-part composite over 3 streams should be complete")
	}
	if comp3.Count() != 3 {
		t.Fatalf("Count = %d, want 3", comp3.Count())
	}
}

func TestCompositeExtendCopies(t *testing.T) {
	a := New(0, 1, 0, []Value{1})
	b1 := New(1, 1, 0, []Value{1})
	b2 := New(1, 2, 0, []Value{2})
	base := NewComposite(2, a)
	x := base.Extend(b1)
	y := base.Extend(b2)
	if x.Parts[1] == y.Parts[1] {
		t.Fatal("sibling branches alias the same part slot")
	}
	if x.Parts[1].Seq != 1 || y.Parts[1].Seq != 2 {
		t.Fatalf("branch contents wrong: %v / %v", x.Parts[1], y.Parts[1])
	}
}

func TestCompositeString(t *testing.T) {
	a := New(0, 1, 0, []Value{1})
	b := New(1, 1, 0, []Value{2})
	comp := NewComposite(2, a).Extend(b)
	s := comp.String()
	if !strings.Contains(s, "⋈") {
		t.Errorf("composite String() = %q should contain join symbol", s)
	}
}

// Property: Count always equals the number of non-nil parts, no matter the
// order streams are joined in.
func TestCompositeCountMatchesParts(t *testing.T) {
	f := func(order []uint8) bool {
		const n = 6
		comp := NewComposite(n, New(0, 0, 0, nil))
		seen := map[int]bool{0: true}
		for _, o := range order {
			s := int(o) % n
			if seen[s] {
				continue
			}
			seen[s] = true
			comp = comp.Extend(New(s, 0, 0, nil))
		}
		nonNil := 0
		for _, p := range comp.Parts {
			if p != nil {
				nonNil++
			}
		}
		return comp.Count() == nonNil && nonNil == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Complete is equivalent to Count == nStreams.
func TestCompositeCompleteIffAllStreams(t *testing.T) {
	f := func(mask uint8) bool {
		const n = 5
		comp := NewComposite(n, New(0, 0, 0, nil))
		for s := 1; s < n; s++ {
			if mask&(1<<uint(s)) != 0 {
				comp = comp.Extend(New(s, 0, 0, nil))
			}
		}
		return comp.Complete(n) == (comp.Count() == n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
