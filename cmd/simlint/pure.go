package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
)

// The pure-type rule: a control-plane protocol's state lives in one
// type that does no I/O, so a model check can drive the production type
// through every interleaving (ring credit, the send queue, ownership,
// the wake rule). The files below hold such types. None may import a
// package that moves virtual time or touches the modelled hardware,
// and no other non-test file may assign to a field of a type they
// declare, or to an element of such a field: the type's own methods
// are the only transitions.
var pureFiles = []string{
	"internal/lite/credit.go",
	"internal/lite/sendq.go",
	"internal/lite/owner.go",
	"internal/lite/wake.go",
}

// pureBanned are the module packages a pure file must not import.
var pureBanned = []string{"internal/simtime", "internal/rnic", "internal/verbs", "internal/hostos"}

// pureFindings reports each breach of the pure-type rule in the module
// at modDir.
func (u *universe) pureFindings(modDir, modPath string) []finding {
	var findings []finding
	report := func(pos token.Pos, format string, args ...any) {
		findings = append(findings, finding{pos: u.fset.Position(pos), msg: fmt.Sprintf(format, args...)})
	}
	pure := map[string]bool{}
	for _, rel := range pureFiles {
		pure[filepath.Join(modDir, rel)] = true
	}
	found := map[string]bool{}
	for _, path := range u.order {
		sp := u.src[path]
		for _, f := range sp.files {
			name := u.fset.Position(f.Pos()).Filename
			if !pure[name] {
				continue
			}
			found[name] = true
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range pureBanned {
					if p == modPath+"/"+b {
						report(imp.Pos(), "%s holds pure types but imports %s: a pure type does no I/O", filepath.Base(name), p)
					}
				}
			}
		}
	}
	for _, rel := range pureFiles {
		if !found[filepath.Join(modDir, rel)] {
			findings = append(findings, finding{msg: fmt.Sprintf("pure file %s is not in the module: update pureFiles", rel)})
		}
	}
	// owner returns the pure file that declares the field e writes, if
	// any.
	owner := func(info *types.Info, e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					if at := u.fset.Position(v.Pos()).Filename; pure[at] {
						return at
					}
				}
			}
			return ""
		}
	}
	for _, path := range u.order {
		sp := u.src[path]
		for _, f := range sp.files {
			name := u.fset.Position(f.Pos()).Filename
			check := func(e ast.Expr) {
				if at := owner(sp.info, e); at != "" && at != name {
					report(e.Pos(), "assigns to a field of a pure type outside %s: call one of its methods", filepath.Base(at))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE {
						for _, e := range s.Lhs {
							check(e)
						}
					}
				case *ast.IncDecStmt:
					check(s.X)
				}
				return true
			})
		}
	}
	return findings
}
