package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/check"
	"kset/internal/core"
	"kset/internal/runfile"
)

func TestExhaustiveN3Clean(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "exhaustive", "-n", "3", "-depth", "2", "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("err = %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"exhaustive: n=3 depth=2 guard=conservative",
		"executions 4096 (6.0x symmetry reduction)",
		"violating runs 0",
		"all oracles held",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
}

func TestExhaustiveFaithfulFindsFlaw(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-mode", "exhaustive", "-n", "3", "-depth", "2", "-faithful", "-out", dir}, &out)
	if err != errViolations {
		t.Fatalf("err = %v, want errViolations\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "oracle k-bound") {
		t.Errorf("output lacks the k-bound shrink line:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "ce-exhaustive-k-bound-1.ksr")); err != nil {
		t.Errorf("counterexample runfile missing: %v", err)
	}
}

func TestFuzzCleanAndDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-mode", "fuzz", "-n", "4", "-budget", "500", "-seed", "7", "-out", t.TempDir()}
	if err := run(args, &a); err != nil {
		t.Fatalf("err = %v\n%s", err, a.String())
	}
	if !strings.Contains(a.String(), "violating runs 0") {
		t.Fatalf("sound oracles fired under the conservative guard:\n%s", a.String())
	}
	// Same seed, more workers: same verdict.
	if err := run(append(args, "-workers", "4"), &b); err != nil {
		t.Fatalf("err = %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "violating runs 0") {
		t.Fatalf("worker count changed the verdict:\n%s", b.String())
	}
}

// TestInvertedOracleProducesReplayableCounterexample pins the acceptance
// criterion end to end: the broken oracle yields a shrunk counterexample
// of <= 3 rounds whose runfile replays to the same violation.
func TestInvertedOracleProducesReplayableCounterexample(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"-mode", "fuzz", "-n", "4", "-budget", "50", "-seed", "1",
		"-oracle", "inverted-k", "-out", dir}, &out)
	if err != errViolations {
		t.Fatalf("err = %v, want errViolations\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "shrunk to n=1, 0 prefix rounds, 1 executed rounds") {
		t.Errorf("shrinker did not reach the trivial schedule:\n%s", s)
	}

	ksr := filepath.Join(dir, "ce-fuzz-inverted-k-bound-1.ksr")
	replayed, err := runfile.ReadFile(ksr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := check.Config{
		Opts:         core.Options{ConservativeDecide: true},
		InvertKBound: true,
	}
	fail, err := check.CheckRun(replayed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		t.Fatal("replayed counterexample no longer violates")
	}
	if fail.Outcome.Rounds > 3 {
		t.Errorf("replayed counterexample needs %d rounds, want <= 3", fail.Outcome.Rounds)
	}
}

// TestHelpIsNotAnError pins that -h prints usage and returns nil (exit
// 0), matching the pre-refactor flag.ExitOnError behavior.
func TestHelpIsNotAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(out.String(), "-mode") {
		t.Fatalf("usage text missing:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "nope"},
		{"-oracle", "nope"},
		{"-mode", "exhaustive", "-n", "9"},
		{"-mode", "fuzz", "-budget", "0"},
		{"-mode", "fuzz", "-budget", "10", "-strategy", "bogus"},
		{"-mode", "fuzz", "-n", "4", "-budget", "10", "-out", t.TempDir(), "stray"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || err == errViolations {
			t.Errorf("args %v: err = %v, want a usage error", args, err)
		}
	}
}
