package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amri/internal/bench"
)

// TestListPrintsRegistry: -list names every registered experiment, one per
// line, and runs nothing.
func TestListPrintsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	reg := bench.Registry()
	if len(lines) != len(reg) {
		t.Fatalf("-list printed %d lines, registry has %d experiments\n%s", len(lines), len(reg), stdout.String())
	}
	for i, e := range reg {
		if !strings.HasPrefix(lines[i], e.ID+" ") {
			t.Errorf("line %d = %q, want it to start with id %q", i, lines[i], e.ID)
		}
	}
}

// TestRunsOneExperiment drives the binary's whole path in-process on the
// cheapest experiment; the header line is golden.
func TestRunsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0\nstderr: %s", code, stderr.String())
	}
	const header = "### table2 — Table II: CSRIA vs CDIA worked example and tuned ICs\n"
	if !strings.HasPrefix(stdout.String(), header) {
		t.Errorf("output does not start with %q\n%s", header, stdout.String())
	}
}

// TestUsageErrorsExitTwo pins the usage-error contract: an unknown
// experiment, and each flag of the retired measured/modeled suites (now
// benchmark/run.sh), exit with the flag package's status 2 and run nothing.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-exp", "nope"}, `unknown experiment "nope"`},
		{[]string{"-measure"}, "flag provided but not defined: -measure"},
		{[]string{"-json"}, "flag provided but not defined: -json"},
		{[]string{"-tuner"}, "flag provided but not defined: -tuner"},
		{[]string{"-gate", "x"}, "flag provided but not defined: -gate"},
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

// TestIndexWorkGolden pins, across commits, the two experiments whose every
// number is a bitindex.Stats count or a MemBytes reading: exact per-pattern
// buckets and tuples (costmodel) and per-width memory and probe work for
// dense and sparse directories up to 64 bits (abl-dir). A change to the
// index that moves what a probe is charged shows here, not only as a
// shifted virtual clock somewhere downstream. The golden files are the
// stdout of `amribench -exp <id> -quick`.
func TestIndexWorkGolden(t *testing.T) {
	for _, id := range []string{"costmodel", "abl-dir"} {
		want, err := os.ReadFile(filepath.Join("testdata", id+"-quick.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", id, "-quick"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit status %d\nstderr: %s", id, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s -quick output moved\n--- got ---\n%s--- want ---\n%s", id, stdout.String(), want)
		}
	}
}
