package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput pins the full text reproduction of Figure 1: the run
// is deterministic, so the output must match the checked-in golden
// byte for byte.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatalf("err = %v\n%s", err, out.String())
	}
	want, err := os.ReadFile("testdata/figure1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output drifted from testdata/figure1.golden:\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestDotMode checks the Graphviz path emits one digraph per figure.
func TestDotMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dot", "-rounds", "4"}, &out); err != nil {
		t.Fatalf("err = %v\n%s", err, out.String())
	}
	s := out.String()
	// G^∩2, G^∩∞, and four per-round approximation graphs.
	if got := strings.Count(s, "digraph "); got != 6 {
		t.Fatalf("%d digraph blocks, want 6:\n%s", got, s)
	}
	for _, name := range []string{`"G_cap_2"`, `"G_cap_inf"`, `"G1_p6"`, `"G4_p6"`} {
		if !strings.Contains(s, name) {
			t.Errorf("missing %s block", name)
		}
	}
}

// TestFlagErrors pins flag parsing through the testable entry point: an
// unknown flag, and a stray word, after which the flag parser would
// silently drop every later flag.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-rounds", "4", "stray", "-dot"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
