package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amri/internal/query"
	"amri/internal/stream"
)

// TestGoldenRoundTripsThroughParseTrace: a short fixed-seed workload is
// golden byte for byte (the file is the stdout of `amrigen -ticks 3 -seed
// 1`), and what amrigen writes is what ParseTrace reads — every row comes
// back, on its tick, fitting the query it was generated for.
func TestGoldenRoundTripsThroughParseTrace(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "ticks3-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ticks", "3", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d\nstderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("-ticks 3 -seed 1 output moved\n--- got ---\n%s--- want ---\n%s", stdout.String(), want)
	}

	rows := strings.Count(stdout.String(), "\n") - 1 // minus the header
	tr, err := stream.ParseTrace(&stdout, 0)
	if err != nil {
		t.Fatalf("ParseTrace refuses amrigen's output: %v", err)
	}
	if tr.Len() != rows || tr.MaxTick() != 2 || tr.Arity() != 3 {
		t.Errorf("trace has %d tuples to tick %d with arity %d, want %d rows to tick 2 with arity 3",
			tr.Len(), tr.MaxTick(), tr.Arity(), rows)
	}
	if err := tr.Validate(query.FourWay(60)); err != nil {
		t.Errorf("generated trace does not fit the query it was generated for: %v", err)
	}
}

// TestUsageErrorsExitTwo: an unknown flag and an unknown profile exit 2 and
// write no workload.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
		{[]string{"-profile", "nope"}, `unknown profile "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: usage error still wrote a workload: %s", tc.args, stdout.String())
		}
	}
}
