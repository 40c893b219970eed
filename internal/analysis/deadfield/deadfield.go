// Package deadfield reports struct fields that non-test code reads but
// never sets, or sets but never reads. The first is a constant zero
// value dressed as state, the second a knob nothing obeys; both are
// dead code that a function-level reachability check cannot see.
//
// A field is set by an assignment to it (=, op=, ++, --), or to a part
// of it in place (s.f.x = v, s.arr[i] = v), and by a composite literal:
// a keyed one sets the fields it names, an unkeyed one all of them.
// Taking its address (&s.f, or calling a pointer method on it, as in
// s.mu.Lock()) both sets and reads it. Any other use reads it, and so
// do == and != on the struct and hashing it as a map key, which read
// every field. Uses in _test.go files do not count. Fields with a
// struct tag are not checked, because encoding/json sets and reads
// them; embedded and blank fields are not checked either. A field
// nothing uses at all is left to staticcheck's U1000.
//
// Unexported fields are checked per package (Analyzer). An exported
// field of an internal package can be used by any package of the
// module, so only Module checks it, against the uses of every package
// it is given: metlint's standalone mode (metlint ./...) loads the
// whole module and runs Module, `go vet -vettool` runs Analyzer. Module
// checks the fields of package-level struct types and of the struct
// types nested directly in them.
package deadfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"met/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadfield",
	Doc:  "flags struct fields that non-test code reads but never sets, or sets but never reads",
	Run:  func(pass *analysis.Pass) error { check(pass, nil); return nil },
}

// Module returns Analyzer extended to the exported fields of internal
// packages, judged by how every package in pkgs uses them.
func Module(pkgs []*analysis.Package) *analysis.Analyzer {
	module := make(map[string]use)
	names := make(map[*types.Package]map[*types.Var]string)
	for _, p := range pkgs {
		for v, u := range uses(p.Fset, p.Files, p.Info) {
			if names[v.Pkg()] == nil {
				names[v.Pkg()] = fieldNames(v.Pkg())
			}
			if name := names[v.Pkg()][v]; name != "" {
				module[name] |= u
			}
		}
	}
	a := *Analyzer
	a.Run = func(pass *analysis.Pass) error { check(pass, module); return nil }
	return &a
}

type use uint8

const (
	read use = 1 << iota
	set
)

// check reports the dead fields declared in the package's non-test
// files. module, when not nil, holds the module-wide uses of exported
// fields by the names fieldNames gives them.
func check(pass *analysis.Pass, module map[string]use) {
	local := uses(pass.Fset, pass.Files, pass.TypesInfo)
	var names map[*types.Var]string
	if module != nil && strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		names = fieldNames(pass.Pkg)
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				if fl.Tag != nil {
					continue
				}
				for _, id := range fl.Names {
					v, _ := pass.TypesInfo.Defs[id].(*types.Var)
					if v == nil || id.Name == "_" {
						continue
					}
					u := local[v]
					if v.Exported() {
						name := names[v]
						if name == "" {
							continue
						}
						u = module[name]
					}
					switch u {
					case read:
						pass.Reportf(id.Pos(), "field %s is read but never set outside tests", id.Name)
					case set:
						pass.Reportf(id.Pos(), "field %s is set but never read outside tests", id.Name)
					}
				}
			}
			return true
		})
	}
}

// uses records how the non-test files use each struct field, keyed by
// its declaration (a generic type's instantiations share its fields).
func uses(fset *token.FileSet, files []*ast.File, info *types.Info) map[*types.Var]use {
	u := make(map[*types.Var]use)
	located := make(map[*ast.SelectorExpr]bool) // selectors that name what is set, not read
	// target marks the field e names, and each field that holds it in
	// place, as used by how.
	target := func(e ast.Expr, how use) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				v := fieldOf(info, x)
				if v == nil {
					return
				}
				u[v] |= how
				located[x] = true
				if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
					return // s.p.f = v reads s.p
				}
				e = x.X
			case *ast.IndexExpr:
				if _, arr := info.TypeOf(x.X).Underlying().(*types.Array); !arr {
					return // a map or slice element: the map or slice is read
				}
				e = x.X
			default:
				return
			}
		}
	}
	// compared marks every field of t read, as == and hashing do.
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch x := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				u[x.Field(i).Origin()] |= read
				compared(x.Field(i).Type())
			}
		case *types.Array:
			compared(x.Elem())
		}
	}
	for e, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok && !analysis.IsTestFile(fset, e.Pos()) {
			compared(m.Key())
		}
	}
	for _, f := range files {
		if analysis.IsTestFile(fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compared(info.TypeOf(n.X))
				}
			case *ast.AssignStmt:
				how := set
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					how |= read
				}
				for _, lhs := range n.Lhs {
					target(lhs, how)
				}
			case *ast.IncDecStmt:
				target(n.X, set|read)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							target(e, set)
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X, set|read)
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n).Underlying()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem().Underlying() // an elided &T in a []*T literal
				}
				st, _ := t.(*types.Struct)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
								u[v.Origin()] |= set
							}
						}
					} else if st != nil && i < st.NumFields() {
						u[st.Field(i).Origin()] |= set
					}
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					recv := sel.Obj().Type().(*types.Signature).Recv().Type()
					_, ptrRecv := recv.(*types.Pointer)
					_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						target(n.X, set|read) // s.mu.Lock() takes &s.mu
					}
				}
				if v := fieldOf(info, n); v != nil && !located[n] {
					u[v] |= read
				}
			}
			return true
		})
	}
	return u
}

// fieldOf resolves sel to the field it selects, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var).Origin()
}

// fieldNames names every field of pkg's package-level struct types,
// and of the struct types nested in them, "path.Type.field.inner": the
// same name whether pkg was loaded from source or from export data.
func fieldNames(pkg *types.Package) map[*types.Var]string {
	names := make(map[*types.Var]string)
	var walk func(prefix string, st *types.Struct)
	walk = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			names[f] = prefix + "." + f.Name()
			if inner, ok := f.Type().(*types.Struct); ok {
				walk(names[f], inner)
			}
		}
	}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				walk(pkg.Path()+"."+n, st)
			}
		}
	}
	return names
}
