package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeFixedSeedRun drives the binary's whole path in-process on a short
// fixed-seed workload. The tuple and result counts are golden — the result
// set is identical at any worker count (see the pipeline determinism tests)
// — while probes and retunes follow the routing sequence, which varies with
// the host's core count, so those lines are only checked for shape.
func TestSmokeFixedSeedRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ticks", "40", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0\nstderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr: %s", stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		`(?m)^ticks:           40 \(8000 tuples\)$`,
		`(?m)^join results:    52$`,
		`(?m)^search requests: [1-9]\d*$`,
		`(?m)^index retunes:   \d+$`,
		`(?m)^throughput:      \d+ tuples/s, \d+ probes/s \(wall clock\)$`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("output has no line matching %s\n%s", want, out)
		}
	}
}

// TestUsageErrorsExitTwo pins the usage-error contract: an unknown flag —
// here the retired -legacy-tuner A/B switch — and an unknown enum value both
// exit with the flag package's status 2 and run nothing.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-legacy-tuner"}, "flag provided but not defined: -legacy-tuner"},
		{[]string{"-method", "nope"}, `unknown method "nope"`},
		{[]string{"-shed-policy", "nope"}, "amripipe:"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: usage error still printed results: %s", tc.args, stdout.String())
		}
	}
}

// TestReplayInvalidScenarioExitsTwo: a repro file that is not a runnable
// scenario is a usage error — exit 2 with the reason, no replay and no
// verdict. A bad shard count used to be reported as a durability failure
// (exit 1), and an out-of-range plan ran and printed PASS.
func TestReplayInvalidScenarioExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		json, stderr string
	}{
		{`{"seed":2,"ticks":2,"workers":1,"shards":3,"plan":{"seed":2}}`, "shards 3 must be 0 or a power of two"},
		{`{"seed":2,"ticks":2,"workers":1,"plan":{"seed":2,"panic_rate":7,"crash_ticks":[-5]}}`, "PanicRate 7 outside [0, 1]"},
		{`{"seed":2,"ticks":2,"workers":1,"plan":{"seed":2,"delay_ns":-5}}`, "negative duration"},
	} {
		path := filepath.Join(t.TempDir(), "repro.json")
		if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-replay", path}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit status %d, want 2", tc.json, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.json, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: an invalid scenario still replayed: %s", tc.json, stdout.String())
		}
	}
}
