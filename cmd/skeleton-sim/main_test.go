package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigure1Adversary pins the default run's decision table and
// skeleton summary (the schedule is deterministic).
func TestFigure1Adversary(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatalf("err = %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"run of 6 processes, 8 rounds, decisions [1 2]",
		"skeleton stabilized at round 3; root components: 2; MinK: 3",
		"k-agreement: 2 distinct decision(s) <= MinK=3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
}

// TestWitnessNote pins that the E10 witness triggers the guard-flaw NOTE
// under the published guard and passes under -conservative.
func TestWitnessNote(t *testing.T) {
	var faithful bytes.Buffer
	if err := run([]string{"-adversary", "witness"}, &faithful); err != nil {
		t.Fatalf("err = %v\n%s", err, faithful.String())
	}
	if !strings.Contains(faithful.String(), "NOTE:") {
		t.Fatalf("witness did not trigger the guard-flaw NOTE:\n%s", faithful.String())
	}
	var cons bytes.Buffer
	if err := run([]string{"-adversary", "witness", "-conservative"}, &cons); err != nil {
		t.Fatalf("err = %v\n%s", err, cons.String())
	}
	if strings.Contains(cons.String(), "NOTE:") {
		t.Fatalf("conservative guard still shows the flaw:\n%s", cons.String())
	}
}

// TestRecordReplayRoundTrip records a random run to a runfile, replays
// it, and checks the two executions printed identical outcomes.
func TestRecordReplayRoundTrip(t *testing.T) {
	ksr := filepath.Join(t.TempDir(), "run.ksr")
	var recorded bytes.Buffer
	if err := run([]string{"-adversary", "random", "-n", "8", "-seed", "9",
		"-record", ksr}, &recorded); err != nil {
		t.Fatalf("err = %v\n%s", err, recorded.String())
	}
	var replayed bytes.Buffer
	if err := run([]string{"-replay", ksr}, &replayed); err != nil {
		t.Fatalf("err = %v\n%s", err, replayed.String())
	}
	// The replay output must match the original below the "recorded run"
	// banner line.
	rec := recorded.String()
	rec = rec[strings.Index(rec, "\n")+1:]
	if rec != replayed.String() {
		t.Fatalf("replayed outcome differs:\n--- recorded ---\n%s\n--- replayed ---\n%s",
			rec, replayed.String())
	}
}

// TestAdversarySelectionErrors pins the usage error paths.
func TestAdversarySelectionErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-adversary", "nope"}, &out); err == nil {
		t.Fatal("no error for an unknown adversary")
	}
	out.Reset()
	if err := run([]string{"-adversary", "churn", "-record", filepath.Join(t.TempDir(), "x.ksr")}, &out); err == nil {
		t.Fatal("no error recording a non-eventually-constant adversary")
	}
	out.Reset()
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.ksr")}, &out); err == nil {
		t.Fatal("no error replaying a missing runfile")
	}
}

// TestTraceFlag checks the per-round trace path: one PT line per
// process per round, with and without -meter (the metering wrapper must
// not hide the processes from the trace observer).
func TestTraceFlag(t *testing.T) {
	for _, extra := range [][]string{nil, {"-meter"}} {
		var out bytes.Buffer
		args := append([]string{"-adversary", "complete", "-n", "3", "-trace"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: err = %v\n%s", args, err, out.String())
		}
		s := out.String()
		rounds := strings.Count(s, "--- round ")
		if rounds == 0 || strings.Count(s, "PT=") != 3*rounds {
			t.Fatalf("%v: %d round banners, %d PT lines, want 3 per round:\n%s",
				args, rounds, strings.Count(s, "PT="), s)
		}
	}
}

// TestOutOfRangeFlagsAreErrors: a flag value the chosen adversary cannot
// take is an error naming the flag and its valid range, never a panic; a
// stray word, after which the flag parser would drop every later flag, is
// an error too.
func TestOutOfRangeFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "-n must be >= 1"},
		{[]string{"-adversary", "complete", "-n", "0"}, "-n must be >= 1"},
		{[]string{"-adversary", "lowerbound", "-n", "4", "-k", "0"}, "-k must be in [2, 3] at -n 4"},
		{[]string{"-adversary", "lowerbound", "-n", "4", "-k", "9"}, "-k must be in [2, 3] at -n 4"},
		{[]string{"-adversary", "random", "-n", "4", "-roots", "0"}, "-roots must be in [1, 4] at -n 4"},
		{[]string{"-adversary", "random", "-n", "4", "-roots", "9"}, "-roots must be in [1, 4] at -n 4"},
		{[]string{"-adversary", "random", "-n", "4", "-noise", "-1"}, "-noise must be >= 0"},
		{[]string{"-adversary", "singlesource", "-n", "4", "-noise", "-1"}, "-noise must be >= 0"},
		{[]string{"-adversary", "churn", "-n", "4", "-roots", "0"}, "-roots must be in [1, 4] at -n 4"},
		{[]string{"-adversary", "partition", "-n", "4", "-blocks", "0"}, "-blocks must be in [1, 4] at -n 4"},
		{[]string{"-adversary", "partition", "-n", "4", "-blocks", "9"}, "-blocks must be in [1, 4] at -n 4"},
		{[]string{"-adversary", "crash", "-n", "4", "-crashes", "9"}, "-crashes must be in [0, 4] at -n 4"},
		{[]string{"-adversary", "eventual", "-n", "3", "-prefix", "-2"}, "-prefix must be >= 0"},
		{[]string{"-adversary", "complete", "-n", "3", "stray"}, "unexpected arguments"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
