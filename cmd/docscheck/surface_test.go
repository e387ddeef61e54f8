package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeTree writes files (slash-separated path → content) below dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkedTree loads and type-checks the tree below root.
func checkedTree(t *testing.T, root string) *tree {
	t.Helper()
	tr, err := loadTree(root)
	if err == nil {
		err = tr.checkAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSurfaceRule runs the gates on a small module: the package-comment
// gate, and the surface gate — what it flags, what counts as a user, and
// each structural exemption.
func TestSurfaceRule(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"internal/a/a.go": `// Package a declares the names under test.
package a

import "fmt"

func Unused()          {}
func OwnTestOnly()     {}
func UsedByOtherTest() {}
func UsedByB()         {}
func BenchOnly()       {}

// T's methods satisfy fmt.Stringer, b.Sizer and a literal interface.
type T struct{}

func (T) String() string { return fmt.Sprint(1) }
func (T) Size() int       { return 1 }
func (T) Literal() int    { return 1 }

// Doc is a JSON surface: tagged fields need no user.
type Doc struct {
	Name  string ` + "`json:\"name\"`" + `
	Plain int
}

// Wrap embeds T; the embedded field is judged as T.
type Wrap struct{ T }

// Opts and Mesh are named only by New's signature, which b calls.
type Opts struct{}
type Mesh struct{}

func New(Opts) *Mesh { return nil }

// Orphan is named only by Dead's signature, which nothing calls.
type Orphan struct{}

func Dead(Orphan) {}
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestOwn(t *testing.T) { OwnTestOnly(); Unused() }\n",
		"internal/b/b.go": `// Package b uses a.
package b

import "m/internal/a"

// sizer is a module interface a.T satisfies.
type sizer interface{ Size() int }

var (
	_ sizer = a.T{}
	_       = a.Doc{}
	_       = a.Wrap{}
	_       = a.New
)

func use(x any) {
	a.UsedByB()
	if l, ok := x.(interface{ Literal() int }); ok {
		l.Literal()
	}
}
`,
		"internal/b/b_test.go":    "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/internal/a\"\n)\n\nfunc TestB(t *testing.T) { a.UsedByOtherTest() }\n",
		"internal/atest/atest.go": "// Package atest is a test-helper package.\npackage atest\n\nfunc Helper() {}\n",
		"bench/go.mod":            "module m/bench\n\ngo 1.24\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"bench/main.go":           "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n",
	})
	tr := checkedTree(t, root)
	if missing, want := tr.uncommented(filepath.ToSlash(root)), filepath.ToSlash(filepath.Join(root, "bench")); !slices.Equal(missing, []string{want}) {
		t.Errorf("packages without a package comment: %v, want [%s]", missing, want)
	}
	count, failing := tr.surface(filepath.ToSlash(filepath.Join(root, "internal")))
	dir := filepath.ToSlash(filepath.Join(root, "internal", "a")) + ": "
	want := []string{
		dir + "Dead",
		dir + "Doc.Plain",
		dir + "Orphan",
		dir + "OwnTestOnly",
		dir + "Unused",
	}
	if !slices.Equal(failing, want) {
		t.Errorf("failing:\n  %s\nwant:\n  %s", strings.Join(failing, "\n  "), strings.Join(want, "\n  "))
	}
	// 5 funcs, T + 3 methods, Doc + Plain, Wrap, Opts, Mesh, New,
	// Orphan, Dead; b exports nothing and atest counts nothing.
	if count != 17 {
		t.Errorf("count = %d, want 17", count)
	}
}

// TestEveryExportHasAUser runs the surface gate on the real tree from the
// module root, as CI's docs gate does. runtime.LossReplayOpts has no
// user but the benchmark module: without that module the gate fails on
// it, with it the gate passes.
func TestEveryExportHasAUser(t *testing.T) {
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("cmd/docscheck")
	count, failing := checkedTree(t, ".").surface("internal")
	if count == 0 || len(failing) > 0 {
		t.Errorf("%d exported names; no user outside their package:\n  %s", count, strings.Join(failing, "\n  "))
	}

	tr, err := loadTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for path, p := range tr.pkgs {
		if p.dir == "benchmark" || strings.HasPrefix(p.dir, "benchmark/") {
			delete(tr.pkgs, path)
		}
	}
	if err := tr.checkAll(); err != nil {
		t.Fatal(err)
	}
	if _, failing := tr.surface("internal"); !slices.Contains(failing, "internal/runtime: LossReplayOpts") {
		t.Errorf("without the benchmark module, failing = %v; want runtime.LossReplayOpts among them", failing)
	}
}
