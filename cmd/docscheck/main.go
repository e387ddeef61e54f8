// Command docscheck is the CI documentation-and-contract gate: it fails
// (exit 1) when any Go package under internal/ lacks a godoc package
// comment, when a registered algorithm family declares a codec fuzz
// target that does not exist, when a fuzz target is not run by CI's
// fuzz smoke, or when an exported name has no user outside its own
// package. The reproduction's packages double as the map of the paper's
// structure (see DESIGN.md §1), so an uncommented package is a hole in
// that map, a fuzz target nobody runs is hostile input nobody is
// hardening against, and an exported name nobody else uses claims a seam
// that does not exist.
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
// .github/workflows/ci.yml, read from the working directory. The surface
// gate (surface.go) reads every module below the working directory, the
// module root, for uses of the exported names declared under dir; a main
// package exports nothing, so under cmd it counts no names.
package main

import (
	"fmt"
	"go/ast"
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
	dir := filepath.ToSlash(filepath.Clean(root))
	t, err := loadTree(".")
	if err == nil {
		err = t.checkAll()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	fail("packages missing a package comment", t.uncommented(dir))
	var broken []string
	for _, name := range algo.Names() {
		if problem := checkFuzzTarget(t, name, algo.MustLookup(name).FuzzTarget); problem != "" {
			broken = append(broken, problem)
		}
	}
	fail("algorithm families with broken fuzz targets", broken)
	targets := t.fuzzTargets(dir)
	if len(targets) > 0 {
		ci, err := os.ReadFile(ciWorkflow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		fail("fuzz targets "+ciWorkflow+" does not run", checkFuzzSmoke(targets, string(ci)))
	}
	names, unused := t.surface(dir)
	fail("exported names with no user outside their package (unexport or delete them)", unused)
	fmt.Printf("docscheck: all packages under %s have package comments; all %d registered algorithm fuzz targets exist; CI fuzzes all %d targets under it; all %d exported names under it have a user outside their package\n",
		root, len(algo.Names()), len(targets), names)
}

// fail reports problems under title and exits 1, unless there are none.
func fail(title string, problems []string) {
	if len(problems) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "docscheck: %s:\n", title)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "  %s\n", p)
	}
	os.Exit(1)
}

// uncommented returns the packages under dir none of whose non-test files
// carries a package comment.
func (t *tree) uncommented(dir string) (missing []string) {
	for _, p := range t.pkgs {
		if under(p.dir, dir) && len(p.files) > 0 &&
			!slices.ContainsFunc(p.files, func(f *ast.File) bool { return strings.TrimSpace(f.Doc.Text()) != "" }) {
			missing = append(missing, p.dir)
		}
	}
	slices.Sort(missing)
	return missing
}

// fuzzTargets returns every func FuzzX(f *testing.F) in the test files of
// the packages under dir, as "dir:FuzzX", sorted.
func (t *tree) fuzzTargets(dir string) (targets []string) {
	for _, p := range t.pkgs {
		if !under(p.dir, dir) {
			continue
		}
		for _, f := range append(slices.Clip(p.tests), p.xtest...) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
					strings.HasPrefix(fn.Name.Name, "Fuzz") && len(fn.Type.Params.List) == 1 {
					targets = append(targets, p.dir+":"+fn.Name.Name)
				}
			}
		}
	}
	slices.Sort(targets)
	return targets
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

// checkFuzzTarget resolves one family's "dir:FuzzName" declaration in t
// and returns a human-readable problem, or "" when the target exists.
func checkFuzzTarget(t *tree, family, target string) string {
	dir, fuzzName, ok := strings.Cut(target, ":")
	if !ok || dir == "" || fuzzName == "" {
		return fmt.Sprintf("%s: malformed fuzz target %q (want dir:FuzzName)", family, target)
	}
	if slices.Contains(t.fuzzTargets(dir), dir+":"+fuzzName) {
		return ""
	}
	return fmt.Sprintf("%s: fuzz target %s not found: no func %s in %s/*_test.go", family, target, fuzzName, dir)
}
