package repro_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// A func, method, type or const declared in a non-test file under
// internal/ is dead when no non-test file in the module uses it
// (cmd/, examples/, client/, api/ and the perfbench/ module count) and
// no test file of another package uses it either: only its own
// package's tests reach it, so it is API kept alive for them alone.
// TestNoDeadDeclarations type-checks the whole tree and names every
// such declaration. A method that satisfies an interface declaring it
// (one the module's types mention, error or fmt.Stringer) is reached
// through that interface and is live; everything else that stays
// deliberately sits in deadExempt with its reason.

// deadExempt is the one exemption table, keyed "pkg.Name" or
// "pkg.Type.Method" with pkg the path below repro/internal/.
var deadExempt = map[string]string{
	"model.BlockingFactorFromMLP":   "MLP-derived BF: the ROADMAP blocking-factor item reads it next to the fitted BF",
	"experiments.Suite.FitRuns":     "lists a grid's probes: the ROADMAP probe-ledger item renders it",
	"memsys.Counters.AvgQueueDelay": "per-request queue delay: the ROADMAP probe-ledger and queue-curve items report it",
	"serve.WithClock":               "test seam: injects a fake clock for the server's timing tests",
	"serve.faultNone":               "named zero of the fault-injection iota enum",
}

type scanPkg struct {
	path          string
	files         []*ast.File // non-test files
	tests, xtests []*ast.File // in-package and external test files
	pkg           *types.Package
	info          *types.Info
	done          bool
}

type scanner struct {
	t      *testing.T
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*scanPkg
	used   map[token.Pos]bool
	ifaces []*types.Interface
	seen   map[types.Type]bool
}

func TestNoDeadDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports")
	}
	s := &scanner{t: t, fset: token.NewFileSet(), pkgs: map[string]*scanPkg{},
		used: map[token.Pos]bool{}, seen: map[types.Type]bool{}}
	// The source importer type-checks the standard library from GOROOT;
	// without cgo it takes the pure-Go files and never runs the cgo tool.
	build.Default.CgoEnabled = false
	s.std = importer.ForCompiler(s.fset, "source", nil)
	s.parseTree(".")
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s.check(s.pkgs[p])
	}
	// Test files are checked in a second pass over the same ASTs, so
	// their uses land on the same declaration positions.
	for _, p := range paths {
		s.checkTests(s.pkgs[p])
	}
	// fmt reaches String methods by type assertion, which the module's
	// type info never shows.
	fmtPkg, err := s.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	s.addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	s.addIface(types.Universe.Lookup("error").Type())

	var dead []string
	found := map[string]bool{}
	for _, p := range paths {
		sp := s.pkgs[p]
		if !strings.HasPrefix(p, "repro/internal/") || sp.pkg == nil {
			continue
		}
		for _, f := range sp.files {
			for _, obj := range declared(f, sp.info) {
				key := strings.TrimPrefix(p, "repro/internal/") + "." + declName(obj)
				if _, ok := deadExempt[key]; ok {
					found[key] = true
					if s.used[obj.Pos()] {
						t.Errorf("stale exemption %s: it now has a caller", key)
					}
					continue
				}
				if s.used[obj.Pos()] || s.viaInterface(obj) {
					continue
				}
				dead = append(dead, fmt.Sprintf("%s: %s", s.fset.Position(obj.Pos()), key))
			}
		}
	}
	for key := range deadExempt {
		if !found[key] {
			t.Errorf("stale exemption %s: no such declaration", key)
		}
	}
	for _, d := range dead {
		t.Errorf("dead: %s has no caller outside its own package's tests", d)
	}
}

// parseTree parses every package directory under root, skipping
// testdata and hidden directories, with the default build constraints.
func (s *scanner) parseTree(root string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "repro"
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		sp := s.pkgs[ip]
		if sp == nil {
			sp = &scanPkg{path: ip}
			s.pkgs[ip] = sp
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			sp.files = append(sp.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			sp.xtests = append(sp.xtests, f)
		default:
			sp.tests = append(sp.tests, f)
		}
		return nil
	})
	if err != nil {
		s.t.Fatal(err)
	}
}

// Import resolves the module's own packages from their non-test files
// and everything else through the source importer.
func (s *scanner) Import(path string) (*types.Package, error) {
	if sp := s.pkgs[path]; sp != nil {
		s.check(sp)
		if sp.pkg == nil {
			return nil, fmt.Errorf("%s has no non-test files", path)
		}
		return sp.pkg, nil
	}
	return s.std.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

func (s *scanner) typeCheck(path string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: s, Error: func(err error) { s.t.Error(err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	return pkg
}

// check type-checks a package's non-test files once, records their
// uses and collects the interface types they mention.
func (s *scanner) check(sp *scanPkg) {
	if sp.done || len(sp.files) == 0 {
		return
	}
	sp.done = true
	sp.info = newInfo()
	sp.pkg = s.typeCheck(sp.path, sp.files, sp.info)
	for _, f := range sp.files {
		s.recordUses(f, sp.info, "")
	}
	for _, tv := range sp.info.Types {
		s.addIface(tv.Type)
	}
	for _, obj := range sp.info.Uses {
		s.addIface(obj.Type())
	}
}

// checkTests type-checks a package's in-package tests together with its
// non-test files, then its external tests, and records their uses of
// other packages.
func (s *scanner) checkTests(sp *scanPkg) {
	if len(sp.tests) > 0 {
		info := newInfo()
		s.typeCheck(sp.path, append(append([]*ast.File{}, sp.files...), sp.tests...), info)
		for _, f := range sp.tests {
			s.recordUses(f, info, sp.path)
		}
	}
	if len(sp.xtests) > 0 {
		info := newInfo()
		s.typeCheck(sp.path+"_test", sp.xtests, info)
		for _, f := range sp.xtests {
			s.recordUses(f, info, sp.path)
		}
	}
}

// recordUses marks every object f refers to as used, except objects of
// package self (a package's own tests), references inside the object's
// own declaration, and a method's receiver type.
func (s *scanner) recordUses(f *ast.File, info *types.Info, self string) {
	mark := func(n ast.Node, lo, hi token.Pos) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || (self != "" && obj.Pkg().Path() == self) {
				return true
			}
			if p := obj.Pos(); p < lo || p >= hi {
				s.used[p] = true
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Type != nil {
				mark(d.Type, d.Pos(), d.End())
			}
			if d.Body != nil {
				mark(d.Body, d.Pos(), d.End())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				mark(spec, spec.Pos(), spec.End())
			}
		}
	}
}

// addIface records every interface type reachable from t.
func (s *scanner) addIface(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		s.addIface(t.Underlying())
	case *types.Interface:
		if t.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, t)
		}
	case *types.Pointer:
		s.addIface(t.Elem())
	case *types.Slice:
		s.addIface(t.Elem())
	case *types.Array:
		s.addIface(t.Elem())
	case *types.Chan:
		s.addIface(t.Elem())
	case *types.Map:
		s.addIface(t.Key())
		s.addIface(t.Elem())
	case *types.Signature:
		s.addIface(t.Params())
		s.addIface(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.addIface(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.addIface(t.Field(i).Type())
		}
	}
}

// viaInterface reports whether obj is a method its receiver's type
// provides to satisfy an interface that declares it.
func (s *scanner) viaInterface(obj types.Object) bool {
	rt := recvBase(obj)
	if rt == nil {
		return false
	}
	for _, it := range s.ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == obj.Name() {
				declares = true
				break
			}
		}
		if declares && (types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it)) {
			return true
		}
	}
	return false
}

// declared lists f's top-level funcs, methods, types and consts.
func declared(f *ast.File, info *types.Info) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name)
				case *ast.ValueSpec:
					if d.Tok == token.CONST {
						for _, n := range spec.Names {
							add(n)
						}
					}
				}
			}
		}
	}
	return objs
}

// declName is "Name" or, for a method, "Recv.Name".
func declName(obj types.Object) string {
	if n, ok := recvBase(obj).(*types.Named); ok {
		return n.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// recvBase is a method's receiver type without its pointer, or nil
// when obj is not a method.
func recvBase(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}
