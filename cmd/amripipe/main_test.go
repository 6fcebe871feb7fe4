package main

import (
	"bytes"
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
