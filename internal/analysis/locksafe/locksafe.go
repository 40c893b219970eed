// Package locksafe flags known-blocking operations performed while a
// guarded engine lock is lexically held.
//
// The engine's contract (internal/kv/kv.go, "Concurrency") is that
// the store/WAL/regionserver mutexes protect in-memory structures
// only: file I/O, fsync, compaction waits, channel operations and
// sleeps must happen outside them, or every reader stalls behind a
// disk. locksafe enforces that mechanically for the lock spans it can
// see.
//
// The analysis is strictly intraprocedural and lexical: a span opens
// at `x.mu.Lock()` / `x.mu.RLock()` where x is (a pointer to) one of
// the guarded struct types, and closes at the matching Unlock on the
// same statement path; `defer x.mu.Unlock()` holds the span to the
// end of the function. Locks acquired in a helper and blocking calls
// made by a helper that is itself called under a lock (the repo's
// *Locked naming convention) are out of scope by design — reviewing
// those remains the job of the `xxxLocked` suffix convention, and the
// limitation is documented in the package docs of internal/kv and
// internal/durable. Function literals are analyzed with a fresh
// (empty) lock state, since they usually run on other goroutines.
//
// Audited exceptions are annotated in place:
//
//	_ = s.backend.Close() //lint:allow locksafe exclusive shutdown: closed=true fences every other path
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"met/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flags blocking operations (file I/O, fsync, compaction waits, " +
		"channel ops, sleeps) lexically inside critical sections of the " +
		"guarded engine locks (kv.Store.mu, durable.WAL.mu, hbase.RegionServer.mu)",
	Run: run,
}

// Guarded lists the struct types whose `mu` field opens a critical
// section this analyzer polices. Tests extend it with fixture types.
var Guarded = map[string]bool{
	"met/internal/kv.Store":           true,
	"met/internal/durable.WAL":        true,
	"met/internal/hbase.RegionServer": true,

	// RPC-layer locks guard listener handles and address books that the
	// serving path reads on every request: a network call inside one
	// stalls every concurrent RPC behind one slow peer.
	"met/internal/rpc.Server":     true,
	"met/internal/rpc.MasterNode": true,
	// The client's stream pool: every op takes its lock to pop or push
	// an idle stream, so a dial or an upgrade under it would hold every
	// other op to that process behind one slow connect.
	"met/internal/rpc.connPool": true,
}

// BlockingFuncs maps fully-qualified functions, methods and
// package-level function variables (the durable test shims) that may
// block on I/O or scheduling. Keys use analysis.FuncFullName format.
var BlockingFuncs = map[string]bool{
	"time.Sleep": true,

	// Plain file I/O.
	"os.WriteFile": true, "os.ReadFile": true, "os.Open": true,
	"os.OpenFile": true, "os.Create": true, "os.Rename": true,
	"os.Remove": true, "os.RemoveAll": true, "os.MkdirAll": true,
	"os.ReadDir": true, "os.Stat": true,
	"io.Copy": true, "io.ReadAll": true,
	"path/filepath.Glob": true, "path/filepath.Walk": true,
	"path/filepath.WalkDir": true,
	"(os.File).Sync":        true, "(os.File).Close": true,
	"(os.File).Write": true, "(os.File).WriteString": true,
	"(os.File).WriteAt": true, "(os.File).Read": true,
	"(os.File).ReadAt": true, "(os.File).Seek": true,
	"(os.File).Truncate": true,

	"(sync.WaitGroup).Wait": true,

	// Network I/O: connect/accept/read/write all block on the peer, and
	// an HTTP round trip blocks on the whole remote handler. Writing a
	// response counts too — the client may be slow to drain it.
	"net.Listen": true, "net.Dial": true, "net.DialTimeout": true,
	"(net.Conn).Read": true, "(net.Conn).Write": true,
	"(net.Listener).Accept": true,
	"(net/http.Client).Do":  true, "(net/http.Client).Get": true,
	"(net/http.Client).Post": true, "(net/http.Client).PostForm": true,
	"net/http.Get": true, "net/http.Post": true,
	"(net/http.Server).Serve": true, "(net/http.Server).ListenAndServe": true,
	"(net/http.Server).Shutdown":      true,
	"(net/http.ResponseWriter).Write": true,
	// The rpc layer's own round trips: the JSON control call and the
	// worker's registration, which also sleeps between retries.
	"met/internal/rpc.callJSON": true, "met/internal/rpc.Register": true,
	// The data plane's frame stream: reading or writing a frame blocks
	// on the peer, and opening a stream is a connect plus an HTTP
	// upgrade round trip.
	"met/internal/rpc.readFrame": true, "met/internal/rpc.writeFrame": true,
	"met/internal/rpc.dialStream": true,

	// Engine-internal blocking entry points. WAL appends are on the
	// list because the guarded locks must never nest over a log
	// write; the durable WAL's own w.mu serializing its buffered
	// appends is the one audited design exception (see
	// internal/durable's package doc).
	"met/internal/durable.OpenWAL":        true,
	"met/internal/durable.syncFile":       true,
	"met/internal/durable.syncDir":        true,
	"met/internal/durable.SyncDir":        true,
	"met/internal/durable.walSyncFile":    true,
	"met/internal/durable.walRemoveFile":  true,
	"met/internal/durable.writeSSTable":   true,
	"met/internal/durable.openSSTable":    true,
	"met/internal/durable.CreateTailGen":  true,
	"met/internal/durable.AppendTail":     true,
	"met/internal/durable.RemoveTailGens": true,
	"met/internal/durable.TailGens":       true,
	"met/internal/durable.ReadTail":       true,
	"met/internal/replication.CopyFile":   true,

	"(met/internal/durable.WAL).Close":        true,
	"(met/internal/durable.RegionLog).Append": true,
	"(met/internal/kv.StorageBackend).Close":  true,

	"(met/internal/compaction.Budget).WaitBackground": true,
}

// BlockingMethods lists method names that block regardless of
// receiver — the compaction/replication merge-and-wait paths.
var BlockingMethods = map[string]bool{
	"WaitBackground": true,
	"CompactFiles":   true,
	"Quiesce":        true,
}

// BlockingPrefixes flags the replication ship* paths by name.
var BlockingPrefixes = []string{"ship", "Ship"}

type heldLock struct {
	pos   token.Pos // position of the Lock/RLock call
	rlock bool
}

// lockState maps a rendered lock expression ("s.mu") to its
// acquisition. Maps are copied at branch points so a branch-local
// Lock/Unlock cannot leak into the fallthrough path.
type lockState map[string]heldLock

func (ls lockState) clone() lockState {
	c := make(lockState, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

func run(pass *analysis.Pass) error {
	s := &scanner{pass: pass}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.scanStmt(fd.Body, lockState{})
		}
		// Function literals run with a fresh lock state: they are
		// goroutine bodies, deferred cleanups or callbacks, none of
		// which inherit the creating function's lexical locks.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				s.scanStmt(lit.Body, lockState{})
			}
			return true
		})
	}
	return nil
}

type scanner struct {
	pass *analysis.Pass
}

func (s *scanner) scanStmt(stmt ast.Stmt, held lockState) {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		for _, x := range st.List {
			s.scanStmt(x, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.checkNode(st.Cond, held)
		s.scanStmt(st.Body, held.clone())
		if st.Else != nil {
			s.scanStmt(st.Else, held.clone())
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			s.checkNode(st.Cond, held)
		}
		body := held.clone()
		s.scanStmt(st.Body, body)
		if st.Post != nil {
			s.scanStmt(st.Post, body)
		}
	case *ast.RangeStmt:
		s.checkNode(st.X, held)
		s.scanStmt(st.Body, held.clone())
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		if st.Tag != nil {
			s.checkNode(st.Tag, held)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.checkNode(e, held)
			}
			branch := held.clone()
			for _, x := range cc.Body {
				s.scanStmt(x, branch)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, held)
		}
		s.scanStmt(st.Assign, held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			branch := held.clone()
			for _, x := range cc.Body {
				s.scanStmt(x, branch)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.reportHeld(st.Pos(), "select may block", held)
		}
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := held.clone()
			for _, x := range cc.Body {
				s.scanStmt(x, branch)
			}
		}
	case *ast.GoStmt:
		// Spawning is non-blocking; the goroutine body is a FuncLit
		// analyzed separately with an empty lock state.
	case *ast.DeferStmt:
		// A deferred Unlock keeps the span open to function end —
		// i.e. no state change. Other deferred calls execute at
		// return, not here, so they are not checked at this point.
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case *ast.SendStmt:
		s.reportHeld(st.Arrow, "channel send", held)
		s.checkNode(st.Chan, held)
		s.checkNode(st.Value, held)
	case *ast.ExprStmt:
		if s.lockTransition(st.X, held) {
			return
		}
		s.checkNode(st.X, held)
	default:
		// Leaf statements (assignments, returns, declarations,
		// inc/dec): scan their expressions for blocking calls.
		s.checkNode(stmt, held)
	}
}

// lockTransition updates held if expr is a Lock/RLock/Unlock/RUnlock
// call on a guarded mutex, reporting nothing. Returns true when the
// expression was consumed as a transition.
func (s *scanner) lockTransition(expr ast.Expr, held lockState) bool {
	key, name, pos := s.guardedLockCall(expr)
	if key == "" {
		return false
	}
	switch name {
	case "Lock":
		held[key] = heldLock{pos: pos}
	case "RLock":
		held[key] = heldLock{pos: pos, rlock: true}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return true
}

// guardedLockCall recognizes `base.mu.Lock()` (and RLock/Unlock/
// RUnlock) where base's type is in Guarded. It returns the rendered
// lock expression ("s.mu"), the method name and the call position, or
// "" when expr is not such a call.
func (s *scanner) guardedLockCall(expr ast.Expr) (key, name string, pos token.Pos) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", "", token.NoPos
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", token.NoPos
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", token.NoPos
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || muSel.Sel.Name != "mu" {
		return "", "", token.NoPos
	}
	base := s.pass.TypesInfo.Types[muSel.X].Type
	if base == nil || !Guarded[analysis.TypeName(base)] {
		return "", "", token.NoPos
	}
	return render(muSel), sel.Sel.Name, call.Pos()
}

// checkNode reports blocking operations anywhere inside n (stopping
// at function-literal boundaries) while any guarded lock is held.
func (s *scanner) checkNode(n ast.Node, held lockState) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				s.reportHeld(e.Pos(), "channel receive", held)
			}
		case *ast.SendStmt:
			s.reportHeld(e.Arrow, "channel send", held)
		case *ast.CallExpr:
			if desc := s.blockingCall(e); desc != "" {
				s.reportHeld(e.Pos(), "blocking call to "+desc, held)
			}
		}
		return true
	})
}

// blockingCall returns a description of the callee when it is in one
// of the blocking sets, or "".
func (s *scanner) blockingCall(call *ast.CallExpr) string {
	if fn := analysis.Callee(s.pass.TypesInfo, call); fn != nil {
		full := analysis.FuncFullName(fn)
		if BlockingFuncs[full] {
			return full
		}
		if BlockingMethods[fn.Name()] {
			return full
		}
		for _, p := range BlockingPrefixes {
			if strings.HasPrefix(fn.Name(), p) {
				return full
			}
		}
		return ""
	}
	if v := analysis.CalleeVar(s.pass.TypesInfo, call); v != nil {
		full := v.Pkg().Path() + "." + v.Name()
		if BlockingFuncs[full] {
			return full
		}
	}
	return ""
}

func (s *scanner) reportHeld(pos token.Pos, what string, held lockState) {
	if len(held) == 0 {
		return
	}
	// Deterministically pick one held lock to blame (usually there
	// is exactly one).
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	k := keys[0]
	h := held[k]
	verb := "Lock"
	if h.rlock {
		verb = "RLock"
	}
	s.pass.Reportf(pos, "%s while %s is held (%s at line %d)",
		what, k, verb, s.pass.Fset.Position(h.pos).Line)
}

// render prints a selector chain ("s.store.mu") for diagnostics and
// lock-state keys.
func render(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return render(x.X) + "." + x.Sel.Name
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
