// Package crashpoint audits the fault-injection crash-point labels
// (internal/testutil.Injector): every label registered in production
// code via a `crash("...")` hook call must be unique within its
// package and exercised by at least one test.
//
// A crash point nobody arms is dead recovery-test surface — the
// window it was written to cover silently stops being tested when
// its label drifts out of the test (a rename, a refactor). Colliding
// labels are worse: Injector.Arm fires on the first hit, so two call
// sites sharing a label test only whichever runs first.
//
// Rules, per package:
//
//   - a registration is a call to a function or method named `crash`
//     in a non-test file; its first argument must be a constant
//     string (labels assembled at run time cannot be audited);
//   - duplicate labels are reported at the second registration;
//   - when the package under analysis includes test files (go vet
//     analyzes the test variant of each package), every registered
//     label must appear as a string literal in some _test.go file.
//     Without test files in the pass (the plain package variant) the
//     coverage rule is skipped, so the plain compile of the package
//     does not false-positive.
package crashpoint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strconv"

	"met/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "crashpoint",
	Doc: "checks that every crash-point label registered in production " +
		"code is unique and appears in at least one test",
	Run: run,
}

// HookNames lists the function/method names that register a crash
// point with their first string argument.
var HookNames = map[string]bool{"crash": true}

func run(pass *analysis.Pass) error {
	first := make(map[string]token.Pos) // where each label is registered
	var order []string
	hasTests := false

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			hasTests = true
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || !HookNames[fn.Name()] || len(call.Args) == 0 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(),
					"crash-point label must be a constant string")
				return true
			}
			label := constant.StringVal(tv.Value)
			if prev, ok := first[label]; ok {
				pass.Reportf(call.Pos(),
					"duplicate crash-point label %q (first registered at %s)",
					label, pass.Fset.Position(prev))
				return true
			}
			first[label] = call.Pos()
			order = append(order, label)
			return true
		})
	}

	if !hasTests {
		return nil
	}

	// Collect every string literal mentioned in the package's tests.
	tested := make(map[string]bool)
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil {
				tested[s] = true
			}
			return true
		})
	}

	for _, label := range order {
		if tested[label] {
			continue
		}
		// A label like "snapshot.committed" is also considered
		// covered by a test literal that is a prefix used with
		// fmt.Sprintf-style composition ("snapshot." + phase); be
		// strict only about full-literal absence.
		if coveredByComposition(label, tested) {
			continue
		}
		pass.Reportf(first[label],
			"crash point %q is not exercised by any test in this package", label)
	}
	return nil
}

// coveredByComposition reports whether label splits at a '.' into a
// head and tail that both appear as test literals — tests that loop
// over phases often hold "snapshot" (or "snapshot.") and ".committed"
// (or "committed") separately and concatenate.
func coveredByComposition(label string, tested map[string]bool) bool {
	for i := 0; i < len(label); i++ {
		if label[i] != '.' {
			continue
		}
		head, tail := label[:i], label[i+1:]
		headOK := tested[head] || tested[head+"."]
		tailOK := tested[tail] || tested["."+tail]
		if headOK && tailOK {
			return true
		}
	}
	return false
}
