// Package syncerr flags discarded error results on the durability
// path: Sync, fsync-path Close, and WAL Append/commit calls whose
// error is dropped on a path that acknowledges a write.
//
// An fsync error is the storage system telling you an acknowledged
// write may not exist; ignoring it converts a reportable failure into
// silent data loss (the "fsyncgate" class of bugs). The rule:
//
//   - calling a durability function as a bare statement is flagged;
//   - assigning every error result to the blank identifier is
//     flagged (`_ = w.Close()` must carry a //lint:allow syncerr
//     annotation explaining why the loss is acceptable);
//   - deferred and `go`-spawned calls are not checked (the error is
//     structurally unobservable there; the repo's convention is to
//     close explicitly on ack paths and defer only for cleanup
//     where a separate Sync already ran).
//
// Matched calls are any method named Sync returning exactly one
// error, plus the configured full-name list (WAL appends, fsync-path
// Closes and the durable fsync helpers). Test files are exempt.
package syncerr

import (
	"go/ast"
	"go/types"

	"met/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "syncerr",
	Doc: "flags discarded error results of Sync, fsync-path Close and " +
		"WAL Append/commit calls on write-acknowledging paths",
	Run: run,
}

// Funcs is the full-name list of durability calls whose errors must
// be checked, beyond the generic any-method-named-Sync rule. Tests
// extend it with fixture types.
var Funcs = map[string]bool{
	"(os.File).Sync": true,

	"(met/internal/kv.WAL).AppendBuffered":            true,
	"(met/internal/durable.RegionLog).AppendBuffered": true,
	"(met/internal/durable.RegionLog).Append":         true,
	"(met/internal/durable.RegionLog).Drop":           true,
	"(met/internal/durable.WAL).Close":                true,
	"(met/internal/kv.StorageBackend).Close":          true,

	"met/internal/durable.syncFile":       true,
	"met/internal/durable.syncDir":        true,
	"met/internal/durable.SyncDir":        true,
	"met/internal/durable.CreateTailGen":  true,
	"met/internal/durable.AppendTail":     true,
	"met/internal/durable.RemoveTailGens": true,
	"met/internal/durable.walSyncFile":    true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					if name := target(pass, call); name != "" {
						pass.Reportf(call.Pos(),
							"error result of %s is discarded", name)
					}
				}
			case *ast.AssignStmt:
				checkAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags assignments that blank every error result of a
// durability call: `_ = w.Close()`, `n, _ := log.Append(e)`.
func checkAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name := target(pass, call)
	if name == "" {
		return
	}
	sig := signature(pass, call)
	if sig == nil {
		return
	}
	res := sig.Results()
	errSeen, errBlanked := false, true
	for i := 0; i < res.Len() && i < len(st.Lhs); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		errSeen = true
		if id, ok := st.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
			errBlanked = false
		}
	}
	if errSeen && errBlanked {
		pass.Reportf(call.Pos(), "error result of %s is discarded", name)
	}
}

// target returns the qualified name of call's callee when its error
// must be checked, or "".
func target(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := analysis.Callee(pass.TypesInfo, call); fn != nil {
		full := analysis.FuncFullName(fn)
		if Funcs[full] {
			return full
		}
		if fn.Name() == "Sync" && singleErrorResult(fn.Type()) {
			return full
		}
		return ""
	}
	if v := analysis.CalleeVar(pass.TypesInfo, call); v != nil {
		full := v.Pkg().Path() + "." + v.Name()
		if Funcs[full] {
			return full
		}
	}
	return ""
}

func signature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	if fn := analysis.Callee(pass.TypesInfo, call); fn != nil {
		return fn.Type().(*types.Signature)
	}
	if v := analysis.CalleeVar(pass.TypesInfo, call); v != nil {
		sig, _ := v.Type().(*types.Signature)
		return sig
	}
	return nil
}

func singleErrorResult(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	return sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
