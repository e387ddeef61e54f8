package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCheckFuzzTarget(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"testing\"\n\nfunc FuzzThing(f *testing.F) {}\n"
	if err := os.WriteFile(filepath.Join(dir, "thing_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if p := checkFuzzTarget("fam", dir+":FuzzThing"); p != "" {
		t.Errorf("existing target flagged: %s", p)
	}
	for _, tc := range []struct{ target, want string }{
		{dir + ":FuzzMissing", "not found"},
		{"no-such-dir:FuzzThing", "no-such-dir"},
		{"malformed", "malformed"},
	} {
		if p := checkFuzzTarget("fam", tc.target); !strings.Contains(p, tc.want) {
			t.Errorf("target %q: problem %q does not mention %q", tc.target, p, tc.want)
		}
	}
}

// TestRegisteredFuzzTargetsExist runs the real gate against the real
// registry from the module root — the same check CI executes.
func TestRegisteredFuzzTargetsExist(t *testing.T) {
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("cmd/docscheck")
	for _, tc := range []struct{ family, target string }{
		{"kset", "internal/wire:FuzzDecode"},
		{"approx", "internal/approx:FuzzDecode"},
	} {
		if p := checkFuzzTarget(tc.family, tc.target); p != "" {
			t.Errorf("%s", p)
		}
	}
}

// TestCheckFuzzSmoke: a target counts as run only by a fuzz line whose
// pattern matches its name in its own package.
func TestCheckFuzzSmoke(t *testing.T) {
	targets := []string{"internal/a:FuzzDecode", "internal/b:FuzzSubmit"}
	for _, tc := range []struct {
		name, ci string
		unrun    []string
	}{
		{"both run", "go test -run '^$' -fuzz FuzzDecode -fuzztime 20s ./internal/a\n" +
			"go test -run '^$' -fuzz FuzzSubmit -fuzztime 20s ./internal/b\n", nil},
		{"one missing", "go test -run '^$' -fuzz FuzzDecode -fuzztime 20s ./internal/a\n", []string{"internal/b:FuzzSubmit"}},
		{"wrong package", "go test -fuzz FuzzDecode ./internal/a\ngo test -fuzz FuzzSubmit ./internal/a\n", []string{"internal/b:FuzzSubmit"}},
		{"pattern matches another name", "go test -fuzz FuzzDecodeUDP ./internal/a\ngo test -fuzz FuzzSubmit ./internal/b\n", []string{"internal/a:FuzzDecode"}},
		{"not a go test line", "# -fuzz FuzzDecode ./internal/a\ngo test -fuzz FuzzSubmit ./internal/b\n", []string{"internal/a:FuzzDecode"}},
		{"no workflow", "", targets},
	} {
		if got := checkFuzzSmoke(targets, tc.ci); !slices.Equal(got, tc.unrun) {
			t.Errorf("%s: unrun %v, want %v", tc.name, got, tc.unrun)
		}
	}
}

// TestEveryFuzzTargetIsSmoked runs the fuzz-smoke gate on the real tree
// and workflow from the module root — the same check CI executes.
func TestEveryFuzzTargetIsSmoked(t *testing.T) {
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("cmd/docscheck")
	ci, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	_, targets, err := scan("internal")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(targets, "internal/service:FuzzSubmit") {
		t.Fatalf("targets %v miss FuzzSubmit: the walk finds nothing", targets)
	}
	if unrun := checkFuzzSmoke(targets, string(ci)); len(unrun) > 0 {
		t.Errorf("fuzz targets CI does not run: %v", unrun)
	}
}
