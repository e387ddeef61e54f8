package check

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kset/internal/graph"
	"kset/internal/runfile"
)

// WriteCounterexample exports a failure as replayable artifacts in dir:
//
//	<name>.ksr — the schedule as a runfile (replay with
//	             `skeleton-sim -replay <name>.ksr` or runfile.ReadFile)
//	<name>.dot — Graphviz sources: one digraph per round up to
//	             stabilization, plus the stable skeleton
//	<name>.txt — the violation report, outcome table, and skeleton
//
// It returns the written paths. The directory is created if needed.
func WriteCounterexample(dir, name string, f *Failure) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	ksr := filepath.Join(dir, name+".ksr")
	if err := runfile.WriteFile(ksr, f.Run); err != nil {
		return nil, err
	}

	var dot strings.Builder
	for r := 1; r <= f.Run.StabilizationRound(); r++ {
		dot.WriteString(graph.DOT(f.Run.Graph(r), fmt.Sprintf("round_%d", r), true))
	}
	if f.skeleton != nil {
		dot.WriteString(graph.DOT(f.skeleton, "stable_skeleton", true))
	}
	dotPath := filepath.Join(dir, name+".dot")
	if err := os.WriteFile(dotPath, []byte(dot.String()), 0o644); err != nil {
		return nil, err
	}

	var txt strings.Builder
	txt.WriteString(f.String())
	if f.skeleton != nil {
		txt.WriteString("stable skeleton:\n")
		txt.WriteString(graph.ASCII(f.skeleton))
	}
	fmt.Fprintf(&txt, "replay: go run ./cmd/skeleton-sim -replay %s\n", ksr)
	txtPath := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(txtPath, []byte(txt.String()), 0o644); err != nil {
		return nil, err
	}
	return []string{ksr, dotPath, txtPath}, nil
}
