package fault

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	plans := []Plan{
		None,
		Default(42),
		{
			Seed:         7,
			PanicRate:    0.004,
			SaturateRate: 0.01,
			DelayRate:    0.002,
			Delay:        75 * time.Microsecond,
			AbortRate:    1.0,
			PressureRate: 0.01,
			AssessCost:   3 * time.Microsecond,
			CrashTicks:   []int64{5, 17, 90},
		},
	}
	for i, p := range plans {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("plan %d: marshal: %v", i, err)
		}
		var got Plan
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("plan %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("plan %d round-trip:\n got %+v\nwant %+v", i, got, p)
		}
		// Stability: re-encoding the decoded plan is byte-identical, so a
		// repro file survives load/save cycles unchanged.
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("plan %d: re-marshal: %v", i, err)
		}
		if string(again) != string(data) {
			t.Fatalf("plan %d: unstable encoding:\n first %s\nsecond %s", i, data, again)
		}
	}
}

func TestPlanNextCrash(t *testing.T) {
	p := Plan{CrashTicks: []int64{3, 8, 8, 20}}
	cases := []struct {
		after int64
		tick  int64
		ok    bool
	}{
		{-1, 3, true},
		{3, 8, true},
		{8, 20, true},
		{19, 20, true},
		{20, 0, false},
	}
	for _, c := range cases {
		tick, ok := p.NextCrash(c.after)
		if ok != c.ok || (ok && tick != c.tick) {
			t.Fatalf("NextCrash(%d) = (%d, %v), want (%d, %v)", c.after, tick, ok, c.tick, c.ok)
		}
	}
	if _, ok := None.NextCrash(-1); ok {
		t.Fatal("empty plan scheduled a crash")
	}
}

func TestPlanCrashTicksDoNotEnableInjection(t *testing.T) {
	p := Plan{Seed: 1, CrashTicks: []int64{10}}
	if p.Enabled() {
		t.Fatal("CrashTicks alone should not enable the injector")
	}
	if New(p, 4) != nil {
		t.Fatal("New should return nil for a crash-only plan")
	}
}

func TestInjectorSnapshotRestore(t *testing.T) {
	plan := Plan{Seed: 99, PanicRate: 0.5, SaturateRate: 0.3}
	const actors = 3

	// Drive a reference injector for a prefix, snapshot, then keep driving
	// it while a restored twin replays the suffix. Decisions must match
	// event for event, and hit counters must carry over.
	ref := New(plan, actors)
	for i := 0; i < 200; i++ {
		ref.Decide(OperatorPanic, i%actors)
		ref.Decide(MailboxSaturate, i%actors)
	}
	snap := ref.Snapshot()
	if len(snap) == 0 {
		t.Fatal("snapshot of live injector is empty")
	}

	twin := New(plan, actors)
	if err := twin.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for a := 0; a < actors; a++ {
		if twin.Hits(OperatorPanic, a) != ref.Hits(OperatorPanic, a) {
			t.Fatalf("actor %d panic hits diverge after restore", a)
		}
	}
	for i := 0; i < 200; i++ {
		a := i % actors
		if ref.Decide(OperatorPanic, a) != twin.Decide(OperatorPanic, a) {
			t.Fatalf("suffix decision %d diverged (OperatorPanic, actor %d)", i, a)
		}
		if ref.Decide(MailboxSaturate, a) != twin.Decide(MailboxSaturate, a) {
			t.Fatalf("suffix decision %d diverged (MailboxSaturate, actor %d)", i, a)
		}
	}
	if ref.TotalHits(OperatorPanic) != twin.TotalHits(OperatorPanic) {
		t.Fatal("total panic hits diverge after identical suffix")
	}

	// Shape mismatches are rejected, not silently misapplied.
	if err := twin.Restore(snap[:len(snap)-1]); err == nil {
		t.Fatal("short snapshot accepted")
	}
	other := New(plan, actors+1)
	if err := other.Restore(snap); err == nil {
		t.Fatal("snapshot from different actor count accepted")
	}

	// Nil injector: nil snapshot round-trips; counters into nil rejected.
	var nilInj *Injector
	if nilInj.Snapshot() != nil {
		t.Fatal("nil injector snapshot not nil")
	}
	if err := nilInj.Restore(nil); err != nil {
		t.Fatalf("nil restore nil: %v", err)
	}
	if err := nilInj.Restore(snap); err == nil {
		t.Fatal("restoring counters into nil injector accepted")
	}
}

// TestPlanValidate: rates are probabilities, durations and crash ticks are
// non-negative, crash ticks ascend (repeats allowed: NextCrash skips them).
func TestPlanValidate(t *testing.T) {
	for _, ok := range []Plan{
		None,
		Default(7),
		{AbortRate: 1, CrashTicks: []int64{0, 3, 3, 9}},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	for _, tc := range []struct {
		plan Plan
		want string
	}{
		{Plan{PanicRate: 7}, "PanicRate 7 outside [0, 1]"},
		{Plan{SaturateRate: -0.1}, "SaturateRate"},
		{Plan{DelayRate: math.NaN()}, "DelayRate"},
		{Plan{AbortRate: 1.5}, "AbortRate"},
		{Plan{PressureRate: 2}, "PressureRate"},
		{Plan{Delay: -5}, "negative duration"},
		{Plan{AssessCost: -time.Millisecond}, "negative duration"},
		{Plan{CrashTicks: []int64{-5}}, "CrashTicks[0] = -5 is negative"},
		{Plan{CrashTicks: []int64{9, 5}}, "must be ascending, got 5 after 9"},
	} {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Validate = %v, want an error mentioning %q", tc.plan, err, tc.want)
		}
	}
}
