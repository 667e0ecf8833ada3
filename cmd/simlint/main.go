// Command simlint enforces the repository's determinism discipline:
// simulation code must never consult the host clock or the global
// math/rand stream, because a single wall-clock read or unseeded
// random draw makes runs irreproducible and breaks the bench-guard's
// bit-for-bit comparisons. Virtual time comes from simtime, randomness
// from detrand.
//
// It walks the Go files under the given root (default "internal"),
// skipping _test.go files and testdata directories, and fails on:
//
//   - imports of math/rand or math/rand/v2
//   - calls through the time package to Now or Since (time.Duration
//     constants remain fine — they are values, not clock reads)
//   - ranging over a map while collecting into an outer slice or
//     writing to a builder/encoder: Go randomizes map iteration order,
//     so the collected order differs run to run. Collectors that are
//     later passed to a sort.* call in the same function are fine —
//     sorting launders the order — as is ranging purely for membership
//     or independent per-entry updates.
//   - under internal/lite only: ANY map iteration inside a
//     state-serialization function (one named encode*/serialize*/
//     marshal*). Serialized state crosses nodes — migration transfers,
//     membership broadcasts — where a randomized order does not just
//     perturb one run but desynchronizes the replicas comparing it, so
//     these paths must walk sorted key slices even when the loop body
//     looks order-safe today.
//
// A file may opt out of the wall-clock rule (only) with the directive
// comment
//
//	//simlint:allow-wallclock <justification>
//
// anywhere in the file. It exists for exactly one legitimate use:
// measurement harnesses that report the simulator's own wall-time
// speed (events per second), where the host clock is the measurement,
// not simulation input — wall-clock readings must never influence
// virtual-time behavior. math/rand stays banned regardless.
//
// Import renames are honoured: `import t "time"` followed by t.Now()
// is still flagged, and a local variable named "time" shadowing the
// package is not. The map-range rule infers map-typed expressions
// package-wide: files are linted in sibling groups (one group per
// directory), so struct map fields and package-level map variables
// declared in one file are recognized when a sibling file ranges over
// them. A local declaration shadowing a package-level map name is
// honoured and not flagged. Full type resolution is still out of
// scope, so the rule remains best-effort by design — it exists to
// catch the common leak, not to prove determinism.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// finding is one rule violation at a position.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	root := "internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	// Group files by directory so each package is linted as a unit:
	// the map-range rule resolves struct fields and package-level maps
	// across sibling files.
	groups := map[string][]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		groups[dir] = append(groups[dir], path)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	dirs := make([]string, 0, len(groups))
	for dir := range groups {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var findings []finding
	for _, dir := range dirs {
		fs, err := lintFiles(groups[dir])
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	exportFindings, err := lintModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	findings = append(findings, exportFindings...)
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s) under %s\n", len(findings), root)
		os.Exit(1)
	}
}

// bannedSelectors are the wall-clock reads a simulation must not make.
var bannedSelectors = map[string]string{
	"Now":   "use the Proc's virtual clock (p.Now()) instead of the host clock",
	"Since": "use virtual-time subtraction instead of the host clock",
}

// lintFile lints one file in isolation (no sibling context).
func lintFile(path string) ([]finding, error) {
	return lintFiles([]string{path})
}

// lintFiles lints one package's files together: map declarations
// (struct fields, package-level vars) are resolved across the whole
// group before any file's ranges are checked.
func lintFiles(paths []string) ([]finding, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(paths))
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	structFields, globals := pkgMapDecls(files)
	var findings []finding
	for i, file := range files {
		findings = append(findings, lintWallClock(fset, file)...)
		strictSerial := strings.Contains(filepath.ToSlash(paths[i]), "internal/lite/")
		findings = append(findings, lintMapRange(fset, file, strictSerial, structFields, globals)...)
	}
	return findings, nil
}

// allowWallclock reports whether the file carries the
// //simlint:allow-wallclock directive (see the package comment).
func allowWallclock(file *ast.File) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//simlint:allow-wallclock") {
				return true
			}
		}
	}
	return false
}

// lintWallClock flags math/rand imports and host-clock reads through
// the time package in one file. The //simlint:allow-wallclock
// directive suppresses the clock-read rule (never the math/rand rule).
func lintWallClock(fset *token.FileSet, file *ast.File) []finding {
	var findings []finding
	wallclockOK := allowWallclock(file)

	// timeNames collects the local names the "time" package is
	// imported under in this file ("time" itself, or a rename).
	timeNames := map[string]bool{}
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch p {
		case "math/rand", "math/rand/v2":
			findings = append(findings, finding{
				pos: fset.Position(imp.Pos()),
				msg: fmt.Sprintf("import of %s: use lite/internal/detrand for seeded, replayable randomness", p),
			})
		case "time":
			name := "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				timeNames[name] = true
			}
		}
	}
	if len(timeNames) > 0 && !wallclockOK {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !timeNames[id.Name] {
				return true
			}
			// A non-nil Obj means the identifier resolves to a local
			// declaration shadowing the import, not the package.
			if id.Obj != nil {
				return true
			}
			if why, banned := bannedSelectors[sel.Sel.Name]; banned {
				findings = append(findings, finding{
					pos: fset.Position(sel.Pos()),
					msg: fmt.Sprintf("%s.%s: %s", id.Name, sel.Sel.Name, why),
				})
			}
			return true
		})
	}
	return findings
}

// serializationFunc reports whether a function name marks a
// state-serialization path (the strict map-range rule applies there).
func serializationFunc(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "encode") ||
		strings.HasPrefix(lower, "serialize") ||
		strings.HasPrefix(lower, "marshal")
}

// isMapValued reports whether an expression is statically known to
// produce a map: a map composite literal or make(map[...]...).
func isMapValued(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			_, ok := v.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// pkgMapDecls resolves map declarations across one package's files:
// struct fields of map type (keyed "StructName.field") and
// package-level variables of map type (bare names). A method or
// function in any file is then checked against declarations from every
// sibling.
func pkgMapDecls(files []*ast.File) (fields, globals map[string]bool) {
	fields = map[string]bool{}
	globals = map[string]bool{}
	for _, file := range files {
		for k := range mapFields(file) {
			fields[k] = true
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if _, isMap := vs.Type.(*ast.MapType); isMap {
					for _, name := range vs.Names {
						globals[name.Name] = true
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && isMapValued(vs.Values[i]) {
						globals[name.Name] = true
					}
				}
			}
		}
	}
	return fields, globals
}

// mapFields collects the fields of map type declared by struct types in
// this file, keyed "StructName.field".
func mapFields(file *ast.File) map[string]bool {
	fields := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			if _, isMap := f.Type.(*ast.MapType); !isMap {
				continue
			}
			for _, name := range f.Names {
				fields[ts.Name.Name+"."+name.Name] = true
			}
		}
		return true
	})
	return fields
}

// recvType returns the bare name of a method's receiver type ("" for
// plain functions).
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// mapExprs walks a function and records the names with map type visible
// from the file alone: parameters, var declarations, := from make or a
// map literal, plus "recv.field" selector paths for receiver fields
// declared as maps in this file.
type mapExprs struct {
	names  map[string]bool // plain identifiers of map type
	fields map[string]bool // "recvName.fieldName" selector paths
}

func collectMapExprs(fn *ast.FuncDecl, structFields map[string]bool) mapExprs {
	m := mapExprs{names: map[string]bool{}, fields: map[string]bool{}}
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if _, isMap := f.Type.(*ast.MapType); !isMap {
				continue
			}
			for _, name := range f.Names {
				m.names[name.Name] = true
			}
		}
	}
	addFieldList(fn.Type.Params)
	if rt := recvType(fn); rt != "" && fn.Recv.List[0].Names != nil {
		recv := fn.Recv.List[0].Names[0].Name
		for key := range structFields {
			if strings.HasPrefix(key, rt+".") {
				m.fields[recv+"."+strings.TrimPrefix(key, rt+".")] = true
			}
		}
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ValueSpec:
			if _, isMap := v.Type.(*ast.MapType); isMap {
				for _, name := range v.Names {
					m.names[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(v.Rhs) {
					continue
				}
				if isMapValued(v.Rhs[i]) {
					m.names[id.Name] = true
				}
			}
		}
		return true
	})
	return m
}

// exprPath renders an identifier or one-level selector ("m", "a.b") for
// lookup against the collected map expressions; "" if neither.
func exprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name + "." + v.Sel.Name
		}
	}
	return ""
}

// declaredWithin reports whether an identifier resolves to a
// declaration positioned inside the given block.
func declaredWithin(id *ast.Ident, block *ast.BlockStmt) bool {
	if id.Obj == nil {
		return false
	}
	decl, ok := id.Obj.Decl.(ast.Node)
	if !ok {
		return false
	}
	return decl.Pos() >= block.Pos() && decl.End() <= block.End()
}

// orderSinks are method/package calls that serialize whatever order the
// loop visits: writing inside a map range bakes the random order into
// the output.
var orderSinks = map[string]bool{
	"WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Fprintf": true, "Fprintln": true, "Fprint": true,
}

// lintMapRange flags map iterations whose visit order escapes: an
// append into a collector declared outside the loop (unless the same
// function later sorts that collector), or a direct write to a
// builder/encoder sink from inside the loop body. structFields and
// globals carry the package-wide map declarations from pkgMapDecls.
func lintMapRange(fset *token.FileSet, file *ast.File, strictSerial bool, structFields, globals map[string]bool) []finding {
	var findings []finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		exprs := collectMapExprs(fn, structFields)
		// rangesMap reports whether a range subject is a known map: a
		// local/param/receiver-field map, or a package-level map from any
		// sibling file — unless a declaration inside this function
		// shadows the package-level name.
		rangesMap := func(x ast.Expr) (string, bool) {
			path := exprPath(x)
			if path == "" {
				return "", false
			}
			if exprs.names[path] || exprs.fields[path] {
				return path, true
			}
			if !globals[path] {
				return path, false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return path, false
			}
			if id.Obj != nil {
				if d, ok := id.Obj.Decl.(ast.Node); ok && d.Pos() >= fn.Pos() && d.End() <= fn.End() {
					return path, false // shadowed by a local declaration
				}
			}
			return path, true
		}
		if strictSerial && serializationFunc(fn.Name.Name) {
			ast.Inspect(fn, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				path, isMap := rangesMap(rng.X)
				if !isMap {
					return true
				}
				findings = append(findings, finding{
					pos: fset.Position(rng.Pos()),
					msg: fmt.Sprintf("range over map %q in serialization function %q: serialized state crosses nodes — walk a sorted key slice instead", path, fn.Name.Name),
				})
				return true
			})
			continue
		}

		// sortedVars are identifiers passed to any sort.* call anywhere
		// in this function: collect-then-sort launders map order.
		sortedVars := map[string]bool{}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sort" || pkg.Obj != nil {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok {
					sortedVars[id.Name] = true
				}
			}
			return true
		})

		ast.Inspect(fn, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			path, isMap := rangesMap(rng.X)
			if !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(b ast.Node) bool {
				switch v := b.(type) {
				case *ast.AssignStmt:
					// v = append(v, ...) with plain `=`: the collector
					// lives outside the loop and inherits map order.
					if v.Tok != token.ASSIGN {
						return true
					}
					for i, rhs := range v.Rhs {
						call, ok := rhs.(*ast.CallExpr)
						if !ok {
							continue
						}
						if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || id.Obj != nil {
							continue
						}
						dst, ok := v.Lhs[i].(*ast.Ident)
						if !ok || sortedVars[dst.Name] {
							continue
						}
						// A collector declared inside the loop body dies
						// every iteration; only outer collectors can
						// accumulate cross-iteration order.
						if declaredWithin(dst, rng.Body) {
							continue
						}
						findings = append(findings, finding{
							pos: fset.Position(v.Pos()),
							msg: fmt.Sprintf("append to %q inside range over map %q: iteration order is randomized — sort %[1]q afterwards or range over a sorted key slice", dst.Name, path),
						})
					}
				case *ast.CallExpr:
					sel, ok := v.Fun.(*ast.SelectorExpr)
					if !ok || !orderSinks[sel.Sel.Name] {
						return true
					}
					findings = append(findings, finding{
						pos: fset.Position(v.Pos()),
						msg: fmt.Sprintf("%s.%s inside range over map %q: iteration order is randomized — collect and sort keys first", exprPath(sel.X), sel.Sel.Name, path),
					})
				}
				return true
			})
			return true
		})
	}
	return findings
}
