package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The exported-surface rule: every exported identifier of a package
// under the main module's internal/ — package-level func, type, var or
// const, method, or struct field — must be referenced by some non-test
// file of the main module or of a module nested in it (benchmark/).
// An export that only tests reach is a test helper living in
// production code, or dead code.
//
// A method also counts as used when its type satisfies an interface
// that has the method: an interface any checked file mentions (a
// generic constraint included), a named interface of any loaded
// package, error, or the errors package's Unwrap/Is/As. Embedded
// fields are type composition and are not checked, nor are the members
// of an unexported type: code outside the package cannot name it, its
// exported methods exist to satisfy interfaces and its exported fields
// for reflection (encoding/json). A package under
// internal/ that no non-test file imports is test support: its exports
// are not checked and its references do not count. A declaration
// naming itself (a method's receiver, a recursive call) is no use.
//
// The one exception list is allowlist.txt. Its "paper" entries are
// LITE calls that nothing in the stack needs; each names the call it
// implements and must keep a caller under examples/, so `make
// examples` runs it. Its "inspector" entries are read-only views of a
// package's state that another package's tests must reach, which Go
// allows only through an export; each names the tests. An entry the
// stack itself references is stale.

//go:embed allowlist.txt
var allowlistFile string

// allowEntry is one allowlisted identifier.
type allowEntry struct {
	kind string // "paper" or "inspector"
	why  string // the paper call it implements, or the tests that read it
}

// parseAllowlist reads "kind identifier why" lines; blank lines and
// #-comments are skipped.
func parseAllowlist(text string) (map[string]allowEntry, error) {
	allow := map[string]allowEntry{}
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 3 || (f[0] != "paper" && f[0] != "inspector") {
			return nil, fmt.Errorf("allowlist line %d: want \"paper|inspector identifier why\", got %q", i+1, line)
		}
		allow[f[1]] = allowEntry{kind: f[0], why: strings.Join(f[2:], " ")}
	}
	return allow, nil
}

// listedPkg is the part of `go list -json` output the check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// srcPkg is a module package type-checked from its non-test files.
type srcPkg struct {
	*listedPkg
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// universe type-checks every package of the given modules in one type
// universe (so an interface in one package resolves against a type in
// another) and imports the standard library from export data.
type universe struct {
	fset   *token.FileSet
	listed map[string]*listedPkg
	src    map[string]*srcPkg
	order  []string // source packages in load order
	gc     types.Importer
}

// goList lists the packages of the module at dir and all their
// dependencies, with export data for each.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleDirs returns root and the directory of every module nested
// under it, skipping testdata and hidden directories.
func moduleDirs(root string) ([]string, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && d.Name() == "go.mod" && filepath.Dir(path) != root {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
}

func loadUniverse(modDirs []string) (*universe, error) {
	u := &universe{fset: token.NewFileSet(), listed: map[string]*listedPkg{}, src: map[string]*srcPkg{}}
	for _, dir := range modDirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if u.listed[p.ImportPath] == nil {
				u.listed[p.ImportPath] = p
			}
		}
	}
	u.gc = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := u.listed[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	paths := make([]string, 0, len(u.listed))
	for path := range u.listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if u.listed[path].Module != nil {
			if _, err := u.Import(path); err != nil {
				return nil, err
			}
		}
	}
	return u, nil
}

// Import returns a module package type-checked from source, or a
// standard-library package from its export data.
func (u *universe) Import(path string) (*types.Package, error) {
	if sp := u.src[path]; sp != nil {
		return sp.types, nil
	}
	p := u.listed[path]
	if p == nil || p.Module == nil {
		return u.gc.Import(path)
	}
	sp := &srcPkg{listedPkg: p, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		sp.files = append(sp.files, f)
	}
	conf := types.Config{Importer: u}
	pkg, err := conf.Check(path, u.fset, sp.files, sp.info)
	if err != nil {
		return nil, err
	}
	sp.types = pkg
	u.src[path] = sp
	u.order = append(u.order, path)
	return pkg, nil
}

// export is one checked identifier.
type export struct {
	obj  types.Object
	name string // "pkgpath.Name" or "pkgpath.Type.Member"
	recv *types.Named
}

// testSupport reports the packages under prefix that no non-test file
// imports: test support, whose exports and references do not count.
func (u *universe) testSupport(prefix string) map[string]bool {
	imported := map[string]bool{}
	for _, sp := range u.src {
		for _, imp := range sp.Imports {
			imported[imp] = true
		}
	}
	support := map[string]bool{}
	for path := range u.src {
		if strings.HasPrefix(path, prefix) && !imported[path] {
			support[path] = true
		}
	}
	return support
}

// exportedSurface collects the checked identifiers of every package
// under prefix but the test-support ones.
func (u *universe) exportedSurface(prefix string, support map[string]bool) []export {
	var out []export
	for _, path := range u.order {
		if !strings.HasPrefix(path, prefix) || support[path] {
			continue
		}
		scope := u.src[path].types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			out = append(out, export{obj: obj, name: path + "." + name})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			member := func(o types.Object) {
				if o.Exported() {
					out = append(out, export{obj: o, name: path + "." + name + "." + o.Name(), recv: named})
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				member(named.Method(i))
			}
			switch t := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < t.NumFields(); i++ {
					if !t.Field(i).Embedded() {
						member(t.Field(i))
					}
				}
			case *types.Interface:
				for i := 0; i < t.NumExplicitMethods(); i++ {
					member(t.ExplicitMethod(i))
				}
			}
		}
	}
	return out
}

// origin maps a member of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// Where a reference comes from.
const (
	fromStack   = 1 << iota // internal/, cmd/, a nested module
	fromExample             // examples/
)

// references records, for every object a non-test file outside the
// test-support packages names, whether the stack or an example names
// it. Fields an unkeyed struct literal sets count as named.
func (u *universe) references(examples string, support map[string]bool) map[types.Object]int {
	refs := map[types.Object]int{}
	for _, path := range u.order {
		if support[path] {
			continue
		}
		sp := u.src[path]
		from := fromStack
		if strings.HasPrefix(path, examples) {
			from = fromExample
		}
		mark := func(obj types.Object) { refs[origin(obj)] |= from }
		self := selfReferences(sp)
		for id, obj := range sp.info.Uses {
			if !self[id] {
				mark(obj)
			}
		}
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := sp.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						mark(st.Field(i))
					}
				}
				return true
			})
		}
	}
	return refs
}

// selfReferences returns the identifiers by which a declaration names
// itself: a method's receiver type and a function's recursive calls.
func selfReferences(sp *srcPkg) map[*ast.Ident]bool {
	self := map[*ast.Ident]bool{}
	for _, f := range sp.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil {
				t := fd.Recv.List[0].Type
				if star, ok := t.(*ast.StarExpr); ok {
					t = star.X
				}
				switch x := t.(type) {
				case *ast.IndexExpr:
					t = x.X
				case *ast.IndexListExpr:
					t = x.X
				}
				if id, ok := t.(*ast.Ident); ok {
					self[id] = true
				}
			}
			if fd.Body == nil {
				continue
			}
			fn := sp.info.Defs[fd.Name]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && sp.info.Uses[id] == fn {
					self[id] = true
				}
				return true
			})
		}
	}
	return self
}

// interfaces returns, by method name, every interface a method can be
// reached through: each named interface of a loaded package, each
// interface type a checked file mentions, error, and the optional
// interfaces of the errors package.
func (u *universe) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	add(errType)
	optional := func(name string, params, results []types.Type) {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	optional("Unwrap", nil, []types.Type{errType})
	optional("Unwrap", nil, []types.Type{types.NewSlice(errType)})
	optional("Is", []types.Type{errType}, []types.Type{types.Typ[types.Bool]})
	optional("As", []types.Type{anyType}, []types.Type{types.Typ[types.Bool]})

	visited := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, path := range u.order {
		sp := u.src[path]
		walk(sp.types)
		for _, tv := range sp.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

// satisfiedMethod reports whether method m of named is reachable
// through an interface that named or *named satisfies.
func satisfiedMethod(named *types.Named, m *types.Func, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[m.Name()] {
		if types.Satisfies(named, it) || types.Satisfies(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// lintModule runs the exported-surface rule, with the committed
// allowlist, and the pure-type rule (pure.go) over the module that
// holds root.
func lintModule(root string) ([]finding, error) {
	dir, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod above %s", root)
		}
		dir = parent
	}
	allow, err := parseAllowlist(allowlistFile)
	if err != nil {
		return nil, err
	}
	u, modPath, err := loadModule(dir)
	if err != nil {
		return nil, err
	}
	return append(u.exportFindings(modPath, allow), u.pureFindings(dir, modPath)...), nil
}

// loadModule type-checks the module at modDir and those nested in it.
func loadModule(modDir string) (*universe, string, error) {
	dirs, err := moduleDirs(modDir)
	if err != nil {
		return nil, "", err
	}
	u, err := loadUniverse(dirs)
	if err != nil {
		return nil, "", err
	}
	modPath, err := modulePath(modDir)
	return u, modPath, err
}

// modulePath reads the module path from dir's go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", dir)
}

// exportFindings reports each unreferenced export under the module's
// internal/ that allow does not list, and each allowlist entry that is
// stale, names no export, or (paper) has no caller under examples/.
func (u *universe) exportFindings(modPath string, allow map[string]allowEntry) []finding {
	internal := modPath + "/internal/"
	support := u.testSupport(internal)
	refs := u.references(modPath+"/examples/", support)
	ifaces := u.interfaces()
	var findings []finding
	report := func(pos token.Position, format string, args ...any) {
		findings = append(findings, finding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	found := map[string]bool{}
	for _, e := range u.exportedSurface(internal, support) {
		found[e.name] = true
		pos := u.fset.Position(e.obj.Pos())
		if a, ok := allow[e.name]; ok {
			switch {
			case refs[e.obj]&fromStack != 0:
				report(pos, "%s is allowlisted (%s) but the stack references it: drop the entry", e.name, a.kind)
			case a.kind == "paper" && refs[e.obj]&fromExample == 0:
				report(pos, "%s is allowlisted paper API (%s) but nothing under examples/ calls it", e.name, a.why)
			}
			continue
		}
		if refs[e.obj] != 0 {
			continue
		}
		if m, ok := e.obj.(*types.Func); ok && e.recv != nil && satisfiedMethod(e.recv, m, ifaces) {
			continue
		}
		report(pos, "%s is exported but no non-test file references it: delete it or move it into a _test.go file", e.name)
	}
	var stale []string
	for name := range allow {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		report(token.Position{}, "allowlist entry %s names no exported identifier under internal/", name)
	}
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings
}
