package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs drives the binary's whole path in-process: the template
// query spec and the summary of a short generated run (virtual clock, fixed
// seed — every number is deterministic). The golden files are the stdout of
// `amriquery <args>`.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"dump-fourway.golden", []string{"-dump-fourway"}},
		{"ticks60.golden", []string{"-ticks", "60"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit status %d\nstderr: %s", tc.args, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v output moved\n--- got ---\n%s--- want ---\n%s", tc.args, stdout.String(), want)
		}
	}
}

// TestTraceThatDoesNotFitTheQuery: a trace row naming a stream the query
// does not have, or carrying fewer attributes than its stream's tuples, is
// reported as an error before the run starts — either used to panic the
// engine mid-run with an index out of range.
func TestTraceThatDoesNotFitTheQuery(t *testing.T) {
	for _, tc := range []struct {
		name, csv, stderr string
	}{
		{"unknown stream", "tick,stream,seq,attr0,attr1,attr2\n0,0,0,1,2,3\n1,7,0,1,2,3\n",
			"trace tick 1: stream 7, but the query has streams 0..3"},
		{"short tuples", "tick,stream,seq,attr0,attr1\n0,2,0,1,2\n0,1,0,1,2\n",
			"trace tick 0: stream 2 tuple has 2 attributes, the query's have 3"},
	} {
		path := filepath.Join(t.TempDir(), "trace.csv")
		if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-trace", path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit status %d, want 1", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, stderr.String(), tc.stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: a refused trace still printed results: %s", tc.name, stdout.String())
		}
	}
}

// TestUsageErrorsExitTwo: an unknown flag and an unknown contender exit with
// the flag package's status 2 and run nothing.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
		{[]string{"-system", "nope"}, "amriquery:"},
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
