package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"amri/internal/fault"
)

// healthyScenario exercises real faults and a real crash schedule against an
// honest store — the harness must find nothing.
func healthyScenario() Scenario {
	return Scenario{
		Seed:    11,
		Ticks:   24,
		Workers: 8,
		Shards:  8,
		Plan: fault.Plan{
			Seed:         11,
			PanicRate:    0.004,
			SaturateRate: 0.01,
			AbortRate:    1.0,
			CrashTicks:   []int64{5, 13},
		},
	}
}

// flakyScenario is the seeded failure: the same run over a lying disk that
// drops every other WAL append. Recovery then resumes from a state that
// disagrees with what the run acknowledged, and the digest / audit
// invariants must convict.
func flakyScenario() Scenario {
	sc := healthyScenario()
	sc.FlakeEvery = 2
	return sc
}

func TestHealthyScenarioPasses(t *testing.T) {
	rep := Explore(healthyScenario())
	if rep.Failed() {
		t.Fatalf("healthy scenario convicted: %v", rep.Violations)
	}
	if rep.Recoveries != 2 {
		t.Fatalf("ran %d recoveries, want one per scheduled crash (2)", rep.Recoveries)
	}
	if rep.Results == 0 || rep.Results != rep.RefResults {
		t.Fatalf("results %d, reference %d", rep.Results, rep.RefResults)
	}
}

func TestFlakyStoreConvicted(t *testing.T) {
	rep := Explore(flakyScenario())
	if !rep.Failed() {
		t.Fatal("lying disk passed every invariant")
	}
	if rep.Dropped == 0 {
		t.Fatal("flaky store dropped nothing; scenario does not exercise the fault")
	}
	// The conviction must replay: which appends the flaky store swallows
	// shifts with goroutine interleaving, so exact counts may wobble, but
	// every replay must fail and for the same invariant families (this is
	// what makes an emitted repro useful).
	again := Explore(flakyScenario())
	if !reflect.DeepEqual(kinds(rep), kinds(again)) {
		t.Fatalf("violation kinds not reproducible:\n  first: %v\n  again: %v", rep.Violations, again.Violations)
	}
}

// kinds reduces a report's violations to their invariant-family prefixes.
func kinds(rep *Report) []string {
	out := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		if i := strings.IndexByte(v, ':'); i >= 0 {
			v = v[:i]
		}
		out = append(out, v)
	}
	return out
}

func TestMinimizeShrinksFailingScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("minimization sweep is slow")
	}
	sc := flakyScenario()
	min, st := Minimize(sc, 48)
	if st.Probes > st.Budget {
		t.Fatalf("minimizer overspent: %d probes, budget %d", st.Probes, st.Budget)
	}
	if !Explore(min).Failed() {
		t.Fatal("minimized scenario no longer fails")
	}
	if min.FlakeEvery != sc.FlakeEvery {
		t.Fatalf("minimizer changed the store fault: FlakeEvery %d", min.FlakeEvery)
	}
	if min.Ticks > sc.Ticks || min.Workers > 8 {
		t.Fatalf("minimized scenario grew: ticks %d workers %d", min.Ticks, min.Workers)
	}
	// The fault classes the flaky store doesn't need should be gone.
	if min.Plan.AbortRate != 0 {
		t.Errorf("abort faults survived minimization: %v", min.Plan)
	}
}

func TestMinimizePassesThroughHealthyScenario(t *testing.T) {
	sc := healthyScenario()
	min, st := Minimize(sc, 8)
	if st.Probes != 1 {
		t.Fatalf("spent %d probes on a healthy scenario, want 1", st.Probes)
	}
	if !reflect.DeepEqual(min, sc) {
		t.Fatalf("healthy scenario altered: %+v", min)
	}
}

func TestReproRoundTrip(t *testing.T) {
	sc := flakyScenario()
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, sc); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("repro round-trip drifted:\n  wrote %+v\n  read  %+v", sc, got)
	}
	if _, err := LoadRepro(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing repro succeeded")
	}
}

// TestLoadReproRefusesInvalidScenario: a repro that is not a runnable
// scenario is refused when it is loaded. Before, a bad shard count surfaced
// as a "durability violation" from inside Explore, and an out-of-range rate
// or a negative crash tick ran and printed PASS.
func TestLoadReproRefusesInvalidScenario(t *testing.T) {
	for _, tc := range []struct {
		json, want string
	}{
		{`{"seed":1,"shards":3,"plan":{"seed":1}}`, "shards 3 must be 0 or a power of two"},
		{`{"seed":1,"ticks":-4,"plan":{"seed":1}}`, "ticks -4 is negative"},
		{`{"seed":1,"workers":-1,"plan":{"seed":1}}`, "workers -1 is negative"},
		{`{"seed":1,"flake_every":-2,"plan":{"seed":1}}`, "flake_every -2 is negative"},
		{`{"seed":1,"plan":{"seed":1,"panic_rate":7,"crash_ticks":[-5]}}`, "PanicRate 7 outside [0, 1]"},
		{`{"seed":1,"plan":{"seed":1,"delay_ns":-5}}`, "negative duration"},
		{`{"seed":1,"plan":{"seed":1,"crash_ticks":[9,5]}}`, "CrashTicks must be ascending"},
		{`{"seed":`, "unexpected end of JSON input"},
	} {
		path := filepath.Join(t.TempDir(), "repro.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadRepro(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadRepro(%s) = %v, want an error mentioning %q", tc.json, err, tc.want)
		}
	}
}

// FuzzLoadRepro: arbitrary bytes are refused, or decode to a scenario whose
// knobs are in range and whose plan Validate accepts — nothing in between
// reaches Explore. Seeded from the committed repro.
func FuzzLoadRepro(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "chaos-repro.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(`{"seed":1,"ticks":9,"workers":2,"shards":8,"plan":{"seed":1,"panic_rate":0.5,"delay_ns":10,"crash_ticks":[1,4]}}`))
	f.Add([]byte(`{"shards":3,"plan":{"panic_rate":7,"crash_ticks":[-5]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := parseRepro(data)
		if err != nil {
			return
		}
		if err := sc.Plan.Validate(); err != nil {
			t.Fatalf("accepted a scenario whose plan is invalid: %v", err)
		}
		if sc.Ticks < 0 || sc.Workers < 0 || sc.MailboxCap < 0 || sc.FlakeEvery < 0 ||
			sc.Shards < 0 || sc.Shards > 256 || sc.Shards&(sc.Shards-1) != 0 {
			t.Fatalf("accepted an out-of-range scenario: %+v", sc)
		}
	})
}
