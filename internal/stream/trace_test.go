package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"amri/internal/query"
)

const sampleTrace = `tick,stream,seq,attr0,attr1,attr2
0,0,0,7,29,43
0,1,0,3,7,58
1,0,1,26,10,64
2,3,0,1,2,3
`

func TestParseTraceBasics(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(sampleTrace), 100)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.MaxTick() != 2 {
		t.Fatalf("MaxTick = %d", tr.MaxTick())
	}
	if tr.Arity() != 3 {
		t.Fatalf("Arity = %d", tr.Arity())
	}
	tick0 := tr.Tick(0)
	if len(tick0) != 2 {
		t.Fatalf("tick 0 has %d tuples", len(tick0))
	}
	if tick0[0].Stream != 0 || tick0[0].Attrs[2] != 43 {
		t.Fatalf("first tuple wrong: %v", tick0[0])
	}
	if tick0[0].PayloadBytes != 100 {
		t.Fatalf("payload = %d", tick0[0].PayloadBytes)
	}
	if tr.Tick(5) != nil {
		t.Fatal("missing tick should be nil")
	}
}

func TestParseTraceArrivalStamps(t *testing.T) {
	tr, _ := ParseTrace(strings.NewReader(sampleTrace), 0)
	var last uint64
	for tick := int64(0); tick <= tr.MaxTick(); tick++ {
		for _, tp := range tr.Tick(tick) {
			if tp.Arrival <= last {
				t.Fatalf("arrival stamps not strictly increasing: %d after %d", tp.Arrival, last)
			}
			last = tp.Arrival
		}
	}
	if last != 4 {
		t.Fatalf("final arrival = %d, want 4", last)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"",                        // empty
		"tick,stream,seq,attr0\n", // header only
		"0,0\n",                   // too few fields
		"x,0,0,1\n",               // bad tick
		"0,-1,0,1\n",              // bad stream
		"0,0,x,1\n",               // bad seq
		"0,0,0,zzz\n",             // bad attr
		"0,0,0,1,2\n0,0,1,1\n",    // mixed arity
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c), 0); err == nil {
			t.Errorf("trace %q should fail to parse", c)
		}
	}
}

// TestTraceValidate: a trace fits a query when every row names one of its
// streams and carries at least that stream's attributes; the error names the
// first row, in file order, that does not.
func TestTraceValidate(t *testing.T) {
	q := query.FourWay(60)
	for _, tc := range []struct {
		name, csv, want string
	}{
		{"fits", sampleTrace, ""},
		{"wider rows fit", "0,0,0,1,2,3,4\n", ""},
		{"unknown stream", "0,0,0,1,2,3\n5,4,0,1,2,3\n2,9,0,1,2,3\n", "tick 5: stream 4, but the query has streams 0..3"},
		{"short rows", "3,1,0,1,2\n", "tick 3: stream 1 tuple has 2 attributes, the query's have 3"},
	} {
		tr, err := ParseTrace(strings.NewReader(tc.csv), 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = tr.Validate(q)
		if tc.want == "" && err != nil {
			t.Errorf("%s: Validate = %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceRoundTripsGenerator: dumping a generator to CSV and re-parsing
// yields an identical workload.
func TestTraceRoundTripsGenerator(t *testing.T) {
	q := query.FourWay(60)
	prof := DriftProfile()
	prof.LambdaD = 5
	gen, _ := New(q, prof, 11)

	var buf bytes.Buffer
	fmt.Fprintln(&buf, "tick,stream,seq,attr0,attr1,attr2")
	type key struct {
		tick   int64
		stream int
		seq    uint64
	}
	want := map[key][]uint64{}
	for tick := int64(0); tick < 4; tick++ {
		for _, tp := range gen.Tick(tick) {
			fmt.Fprintf(&buf, "%d,%d,%d,%d,%d,%d\n", tick, tp.Stream, tp.Seq,
				tp.Attrs[0], tp.Attrs[1], tp.Attrs[2])
			want[key{tick, tp.Stream, tp.Seq}] = append([]uint64(nil), tp.Attrs...)
		}
	}

	tr, err := ParseTrace(&buf, prof.PayloadBytes)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for tick := int64(0); tick <= tr.MaxTick(); tick++ {
		for _, tp := range tr.Tick(tick) {
			got++
			w, ok := want[key{tick, tp.Stream, tp.Seq}]
			if !ok {
				t.Fatalf("unexpected tuple %v", tp)
			}
			for i := range w {
				if tp.Attrs[i] != w[i] {
					t.Fatalf("attr mismatch on %v", tp)
				}
			}
		}
	}
	if got != len(want) {
		t.Fatalf("replayed %d tuples, want %d", got, len(want))
	}
}
