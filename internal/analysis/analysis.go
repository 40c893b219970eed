// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis surface that metlint's checkers
// are written against.
//
// The vendored x/tools module is not available in this repository's
// build environment (the module cache is sealed), so instead of
// importing the framework we implement the small slice of it the
// project needs: an Analyzer is a named Run function over a
// type-checked package, a Pass carries the syntax trees and type
// information for exactly one package, and diagnostics are collected
// by the driver (cmd/metlint) rather than printed directly.
//
// The deliberate differences from x/tools are:
//
//   - No facts, no modular analysis: every analyzer here runs per
//     package. The one cross-package check, deadfield's module-wide
//     pass, is built by the standalone driver from every loaded
//     package (deadfield.Module) rather than from facts. cmd/metlint
//     still speaks the `go vet -vettool` unitchecker protocol
//     (including writing empty .vetx facts files) so the go command
//     can drive it.
//   - Central allowlist handling: the driver strips diagnostics
//     carrying a `//lint:allow <analyzer> <reason>` annotation (see
//     allow.go) so individual analyzers never need to know about
//     suppression.
//
// Analyzers live in subpackages (locksafe, atomicfield, nolockcopy,
// syncerr, crashpoint, deadfield); each has an analysistest-style
// fixture suite under its testdata/src directory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow annotations. It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer
	// checks, shown by `metlint help`.
	Doc string

	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer's Run
// function. The same package may be analyzed several times by
// different analyzers; passes are never shared between analyzers.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic. The driver attaches the
	// analyzer name and applies //lint:allow suppression.
	Report func(Diagnostic)
}

// Reportf is a convenience wrapper around Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a Diagnostic tagged with the analyzer that produced it
// and resolved to a concrete file position. This is what drivers
// collect, sort and print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// IsTestFile reports whether pos is inside a *_test.go file.
// Several analyzers exempt test files (tests may block under locks
// they own, poke fields directly, and so on); crashpoint uses it to
// split production registrations from test coverage.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	if f == nil {
		return false
	}
	return strings.HasSuffix(f.Name(), "_test.go")
}

// TypeName renders the named type behind t (after stripping
// pointers) as "pkgpath.Name", or "" if t is not a (pointer to a)
// named type. This is the key format used by analyzer configuration
// sets such as locksafe's guarded-struct list.
func TypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name() // universe scope (error)
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FuncFullName renders fn so it can be matched against analyzer
// configuration: "pkgpath.Name" for package functions and
// "(pkgpath.Recv).Name" for methods (pointer receivers are stripped;
// interface methods use the interface's named type).
func FuncFullName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if recv := TypeName(sig.Recv().Type()); recv != "" {
			return "(" + recv + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// Callee resolves the static callee of call, looking through
// parentheses. It returns nil for calls of function-typed values,
// builtins and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CalleeVar resolves call's callee when it is a package-level
// function-typed variable (the repo's test shims, e.g. durable's
// walSyncFile). Returns nil otherwise.
func CalleeVar(info *types.Info, call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || v.Parent() == nil || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// Parents builds a child→parent map over every node in the files.
// The framework's analyzers are intraprocedural and frequently need
// "is this expression an argument of X" style questions; a parent map
// answers them without threading stacks through every walk.
func Parents(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	for _, f := range files {
		stack := []ast.Node{f}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			parents[n] = stack[len(stack)-1]
			stack = append(stack, n)
			return true
		})
	}
	return parents
}
