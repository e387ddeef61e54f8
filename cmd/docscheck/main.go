// Command docscheck is the CI documentation-and-contract gate: it fails
// (exit 1) when any Go package under internal/ lacks a godoc package
// comment, when a registered algorithm family declares a codec fuzz
// target that does not exist, or when a fuzz target is not run by CI's
// fuzz smoke. The reproduction's packages double as the map of the
// paper's structure (see DESIGN.md §1), so an uncommented package is a
// hole in that map — and a fuzz target nobody runs is hostile input
// nobody is hardening against.
//
// Usage:
//
//	go run ./cmd/docscheck [dir]
//
// dir defaults to internal; every directory below it containing
// non-test .go files is checked. The fuzz-target gate always runs
// against the registry (internal/algo), resolving each family's
// declared "dir:FuzzName" to a func FuzzName(f *testing.F) in that
// directory's _test.go files. Every such func under dir must also be
// matched by a `go test ... -fuzz Pattern ... ./dir` line of
// .github/workflows/ci.yml, read from the working directory.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"kset/internal/algo"
)

func main() {
	root := "internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	missing, targets, err := scan(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: packages missing a package comment:\n")
		for _, p := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		os.Exit(1)
	}
	var broken []string
	for _, name := range algo.Names() {
		if problem := checkFuzzTarget(name, algo.MustLookup(name).FuzzTarget); problem != "" {
			broken = append(broken, problem)
		}
	}
	if len(broken) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: algorithm families with broken fuzz targets:\n")
		for _, p := range broken {
			fmt.Fprintf(os.Stderr, "  %s\n", p)
		}
		os.Exit(1)
	}
	if len(targets) > 0 {
		ci, err := os.ReadFile(ciWorkflow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		if unrun := checkFuzzSmoke(targets, string(ci)); len(unrun) > 0 {
			fmt.Fprintf(os.Stderr, "docscheck: fuzz targets %s does not run:\n", ciWorkflow)
			for _, p := range unrun {
				fmt.Fprintf(os.Stderr, "  %s\n", p)
			}
			os.Exit(1)
		}
	}
	fmt.Printf("docscheck: all packages under %s have package comments; all %d registered algorithm fuzz targets exist; CI fuzzes all %d targets under it\n",
		root, len(algo.Names()), len(targets))
}

// scan walks root: the directories whose non-test Go files carry no
// package comment, and every fuzz target below it as "dir:FuzzName".
func scan(root string) (missing, targets []string, err error) {
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ok, checked, err := packageHasComment(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		if checked && !ok {
			missing = append(missing, dir)
		}
		names, err := fuzzTargets(dir)
		for _, name := range names {
			targets = append(targets, filepath.ToSlash(dir)+":"+name)
		}
		return err
	})
	return missing, targets, err
}

// ciWorkflow is the workflow whose fuzz smoke must run every fuzz target.
const ciWorkflow = ".github/workflows/ci.yml"

// fuzzLine is one `go test ... -fuzz Pattern ... ./pkg` command line.
var fuzzLine = regexp.MustCompile(`go test .*-fuzz[ =](\S+).* \./(\S+)`)

// checkFuzzSmoke returns the targets ("dir:FuzzName") that no fuzz line of
// the workflow text ci runs: one whose -fuzz pattern matches the name,
// with the target's directory as its package.
func checkFuzzSmoke(targets []string, ci string) []string {
	var unrun []string
	for _, target := range targets {
		dir, name, _ := strings.Cut(target, ":")
		run := false
		for _, m := range fuzzLine.FindAllStringSubmatch(ci, -1) {
			pattern, err := regexp.Compile(strings.Trim(m[1], `'"`))
			if err == nil && path.Clean(m[2]) == path.Clean(dir) && pattern.MatchString(name) {
				run = true
				break
			}
		}
		if !run {
			unrun = append(unrun, target)
		}
	}
	return unrun
}

// checkFuzzTarget resolves one family's "dir:FuzzName" declaration and
// returns a human-readable problem, or "" when the target exists.
func checkFuzzTarget(family, target string) string {
	dir, fuzzName, ok := strings.Cut(target, ":")
	if !ok || dir == "" || fuzzName == "" {
		return fmt.Sprintf("%s: malformed fuzz target %q (want dir:FuzzName)", family, target)
	}
	names, err := fuzzTargets(dir)
	if err != nil {
		return fmt.Sprintf("%s: fuzz target dir %s: %v", family, dir, err)
	}
	if slices.Contains(names, fuzzName) {
		return ""
	}
	return fmt.Sprintf("%s: fuzz target %s not found: no func %s in %s/*_test.go", family, target, fuzzName, dir)
}

// fuzzTargets returns the names of the funcs FuzzX(f *testing.F) in dir's
// _test.go files.
func fuzzTargets(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, name), err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				strings.HasPrefix(fn.Name.Name, "Fuzz") && len(fn.Type.Params.List) == 1 {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}

// packageHasComment parses the non-test .go files of dir and reports
// whether any carries a package doc comment. checked is false when the
// directory contains no non-test Go files.
func packageHasComment(dir string) (ok, checked bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return false, checked, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
	}
	return false, checked, nil
}
