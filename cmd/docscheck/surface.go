package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// pkg is one directory's Go files, split the way go test splits them.
type pkg struct {
	dir, path           string // slash-separated directory and import path
	files, tests, xtest []*ast.File
	types               *types.Package // the non-test package, once checked
}

// tree is every package below a module root.
type tree struct {
	fset  *token.FileSet
	pkgs  map[string]*pkg // by import path
	std   types.Importer
	infos []*types.Info // one per checked package, test packages included
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// loadTree parses every .go file below root that go/build would build
// here (of the udp_sysnum_linux_*.go pair, only this GOARCH's), skipping
// the directories the go command skips.
func loadTree(root string) (*tree, error) {
	t := &tree{fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	t.std = importer.ForCompiler(t.fset, "gc", nil)
	modules := map[string]string{} // module directory → module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		slash := filepath.ToSlash(dir)
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if m := moduleLine.FindSubmatch(gomod); m != nil {
				modules[slash] = string(m[1])
			}
		}
		mod := slash // the innermost module directory enclosing dir
		for modules[mod] == "" {
			if mod == path.Dir(mod) {
				return nil
			}
			mod = path.Dir(mod)
		}
		p := &pkg{dir: slash, path: path.Join(modules[mod], strings.TrimPrefix(slash, mod))}
		entries, err := os.ReadDir(dir)
		for _, e := range entries {
			name := e.Name()
			if ok, _ := build.Default.MatchFile(dir, name); !ok || e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			f, err := parser.ParseFile(t.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			switch {
			case err != nil:
				return err
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtest = append(p.xtest, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtest) > 0 {
			t.pkgs[p.path] = p
		}
		return err
	})
	return t, err
}

// check type-checks files as package path and returns the first type
// error. Only a non-test package must check clean: a test file may mix a
// package built with its tests and one built without, which go test
// reconciles by recompiling, and a type error can only hide a use, never
// invent one.
func (t *tree) check(path string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var first error
	conf := types.Config{
		Importer: t,
		Error: func(err error) {
			if first == nil {
				first = err
			}
		},
	}
	tp, _ := conf.Check(path, t.fset, files, info)
	t.infos = append(t.infos, info)
	return tp, first
}

// Import returns the non-test package at import path, checking it (and,
// first, what it imports) on the first request.
func (t *tree) Import(path string) (*types.Package, error) {
	p, ok := t.pkgs[path]
	if !ok {
		return t.std.Import(path)
	}
	if p.types == nil {
		tp, err := t.check(path, p.files)
		if err != nil {
			return nil, err
		}
		p.types = tp
	}
	return p.types, nil
}

// checkAll type-checks every package, then every package's tests.
func (t *tree) checkAll() error {
	for _, p := range t.pkgs {
		if len(p.files) > 0 {
			if _, err := t.Import(p.path); err != nil {
				return err
			}
		}
	}
	for _, p := range t.pkgs {
		nonTest := p.types
		if len(p.tests) > 0 {
			// An external test imports its package with the in-package
			// tests compiled in.
			p.types, _ = t.check(p.path, append(slices.Clip(p.files), p.tests...))
		}
		if len(p.xtest) > 0 {
			t.check(p.path+"_test", p.xtest)
		}
		p.types = nonTest
	}
	return nil
}

// exported is where an exported name is declared.
type exported struct {
	dir, name string // slash-separated directory; "Name" or "Type.Name"
}

// surface is the surface gate: every exported name that a non-main
// package under dir declares — function, method, type, constant,
// variable, and field of an exported struct type — must be referenced
// from a .go file outside that package's directory, test files included.
// References are read from every package of every module in the tree (a
// directory holding go.mod starts a module, so the benchmark module
// counts as a caller), type-checked from source; the standard library is
// served from export data. dir is slash-separated, as the tree's walk
// spells it. The only exemptions are structural:
//
//   - a method that satisfies an interface: error, one a module's
//     non-test code declares, one spelled as a literal anywhere in a
//     module, or one a standard package that non-test code imports
//     declares (fmt.Stringer, io.Reader, ...);
//   - a struct field with a tag (the JSON surface), or an embedded one
//     (its name is its type's, judged where the type is declared);
//   - a package whose import path ends in "test" (a test-helper package);
//   - a type named in the signature of an exported function or method,
//     or in the type of an exported field, that itself passes.
//
// It returns how many exported names dir declares and the failing ones,
// as "dir: Name", sorted.
func (t *tree) surface(dir string) (count int, failing []string) {
	decl := map[types.Object]exported{}
	var ifaces []*types.Interface
	addIfaces := func(scope *types.Scope, exportedOnly bool) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && (tn.Exported() || !exportedOnly) && !isGeneric(tn.Type()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	addIfaces(types.Universe, false)
	for _, p := range t.pkgs {
		if p.types == nil {
			continue
		}
		addIfaces(p.types.Scope(), false)
		for _, imp := range p.types.Imports() {
			if t.pkgs[imp.Path()] == nil {
				addIfaces(imp.Scope(), true)
			}
		}
		if p.types.Name() == "main" || strings.HasSuffix(p.path, "test") || !under(p.dir, dir) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			decl[obj] = exported{p.dir, name}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue // not a defined type: an alias has no members of its own
			}
			for m := range named.Methods() {
				if m.Exported() {
					decl[m] = exported{p.dir, name + "." + m.Name()}
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
						decl[f] = exported{p.dir, name + "." + f.Name()}
					}
				}
			}
		}
	}
	for _, info := range t.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}

	used := map[types.Object]bool{}
	for _, info := range t.infos {
		for id, obj := range info.Uses {
			switch o := obj.(type) { // a member of an instantiated generic type
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if e, ok := decl[obj]; ok && e.dir != filepath.ToSlash(filepath.Dir(t.fset.Position(id.Pos()).Filename)) {
				used[obj] = true
			}
		}
	}
	for obj := range decl {
		if fn, ok := obj.(*types.Func); ok && !used[obj] {
			used[obj] = satisfies(fn, ifaces)
		}
	}
	// A type named by a passing exported signature or field passes.
	for changed := true; changed; {
		changed = false
		for obj := range decl {
			if v, ok := obj.(*types.Var); !used[obj] || ok && !v.IsField() {
				continue
			}
			namedIn(obj.Type(), func(tn *types.TypeName) {
				if _, ok := decl[tn]; ok && !used[tn] {
					used[tn], changed = true, true
				}
			})
		}
	}
	for obj, e := range decl {
		if !used[obj] {
			failing = append(failing, e.dir+": "+e.name)
		}
	}
	slices.Sort(failing)
	return len(decl), failing
}

// satisfies reports whether fn is a method that one of ifaces asks of its
// receiver type.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		ptr = types.NewPointer(recv.Type()) // *T has every method of T
	}
	if isGeneric(ptr.Elem()) {
		return false
	}
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// under reports whether directory d is dir or below it.
func under(d, dir string) bool {
	return dir == "." || d == dir || strings.HasPrefix(d, dir+"/")
}

func isGeneric(typ types.Type) bool {
	named, ok := typ.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// namedIn calls f for every type name that typ spells.
func namedIn(typ types.Type, f func(*types.TypeName)) {
	switch t := typ.(type) {
	case *types.Named:
		f(t.Origin().Obj())
		for arg := range t.TypeArgs().Types() {
			namedIn(arg, f)
		}
	case *types.Alias:
		f(t.Obj())
		namedIn(types.Unalias(t), f)
	case *types.Map:
		namedIn(t.Key(), f)
		namedIn(t.Elem(), f)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		namedIn(t.Elem(), f)
	case *types.Signature:
		for v := range t.Params().Variables() {
			namedIn(v.Type(), f)
		}
		for v := range t.Results().Variables() {
			namedIn(v.Type(), f)
		}
	}
}
