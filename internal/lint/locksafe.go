package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// LockSafe enforces the engine's lock-safety contract: code holding a
// sync.Mutex/RWMutex must not block — no channel sends/receives, no
// select without a default, no remote orb invocations, no fsync, no
// store or transaction commit (persist.Batch.Commit, txn.Txn.Commit:
// both wait for a group-committed fsync), no WaitGroup waits — because a blocked lock holder wedges every other
// goroutine contending for that mutex (the wheel goroutine, the drain,
// the servant pool). It also requires every Lock/RLock to have a matching
// Unlock/RUnlock somewhere in the same function (deferred or direct):
// a lock with no same-function release leaks on every early return.
//
// The analysis is a linear over-approximation per function body: branches
// share one held-set, nested function literals are analysed separately
// with an empty held-set, and sync.Cond.Wait is exempt (it releases the
// mutex while parked).
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "flags blocking operations (channel ops, select without default, orb calls, fsync, " +
		"batch and transaction commits, WaitGroup.Wait) while a sync.Mutex/RWMutex is held, and Lock/RLock calls with no " +
		"matching Unlock/RUnlock in the same function",
	Run: runLockSafe,
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// mutexOp classifies a call as a sync.Mutex/RWMutex lock operation and
// returns a stable key for the mutex (the rendered receiver expression).
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, op lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil {
		return "", opNone
	}
	pn, tn := recvNamed(f)
	if pn != "sync" || (tn != "Mutex" && tn != "RWMutex") {
		return "", opNone
	}
	key = types.ExprString(sel.X)
	switch f.Name() {
	case "Lock":
		return key, opLock
	case "RLock":
		return key, opRLock
	case "Unlock":
		return key, opUnlock
	case "RUnlock":
		return key, opRUnlock
	}
	return "", opNone
}

func runLockSafe(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkLockBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkLockBody runs both locksafe checks over one function body,
// treating nested function literals as separate functions (except that
// an unlock inside a nested literal still satisfies the pairing check:
// `defer func() { mu.Unlock() }()` is a release).
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	// Pairing: every lock key+kind needs an unlock of the matching kind.
	type lockSite struct {
		key string
		op  lockOp
		pos token.Pos
	}
	var locks []lockSite
	released := make(map[string]bool) // key + kind
	inspectSkippingLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if key, op := mutexOp(pass.Info, call); op == opLock || op == opRLock {
			locks = append(locks, lockSite{key, op, call.Pos()})
		}
	})
	ast.Inspect(body, func(n ast.Node) bool { // unlocks count anywhere, closures included
		if call, ok := n.(*ast.CallExpr); ok {
			if key, op := mutexOp(pass.Info, call); op == opUnlock {
				released[key+"/w"] = true
			} else if op == opRUnlock {
				released[key+"/r"] = true
			}
		}
		return true
	})
	for _, l := range locks {
		kind, unlock := "/w", "Unlock"
		if l.op == opRLock {
			kind, unlock = "/r", "RUnlock"
		}
		if !released[l.key+kind] {
			pass.Reportf(l.pos,
				"%s locked with no %s in this function: the lock leaks on every return path",
				l.key, unlock)
		}
	}

	// Blocking-while-held: linear walk of the statement sequence.
	held := make(map[string]token.Pos)
	walkLockStmts(pass, body.List, held)
}

// inspectSkippingLits visits every node of the body except subtrees of
// nested function literals.
func inspectSkippingLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func walkLockStmts(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		walkLockStmt(pass, s, held)
	}
}

func walkLockStmt(pass *Pass, s ast.Stmt, held map[string]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if key, op := mutexOp(pass.Info, call); op != opNone {
				switch op {
				case opLock, opRLock:
					held[key] = call.Pos()
				case opUnlock, opRUnlock:
					delete(held, key)
				}
				return
			}
		}
		checkBlockingExpr(pass, st.X, held)
	case *ast.DeferStmt:
		// Runs at return; a deferred Unlock keeps the mutex held for the
		// remainder of the body, which the shared held-set already models.
	case *ast.GoStmt:
		// The spawned body runs on another goroutine (analysed separately
		// with an empty held-set); only the arguments evaluate here.
		for _, arg := range st.Call.Args {
			checkBlockingExpr(pass, arg, held)
		}
	case *ast.SendStmt:
		reportHeld(pass, held, st.Pos(), "channel send")
		checkBlockingExpr(pass, st.Value, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			reportHeld(pass, held, st.Pos(), "select without default")
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				walkLockStmts(pass, cc.Body, held)
			}
		}
	case *ast.BlockStmt:
		walkLockStmts(pass, st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			walkLockStmt(pass, st.Init, held)
		}
		checkBlockingExpr(pass, st.Cond, held)
		walkLockStmts(pass, st.Body.List, held)
		if st.Else != nil {
			walkLockStmt(pass, st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			walkLockStmt(pass, st.Init, held)
		}
		walkLockStmts(pass, st.Body.List, held)
	case *ast.RangeStmt:
		if t, ok := pass.Info.Types[st.X]; ok && isChanType(t.Type) {
			reportHeld(pass, held, st.Pos(), "range over channel")
		}
		walkLockStmts(pass, st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			walkLockStmt(pass, st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, held)
			}
		}
	case *ast.LabeledStmt:
		walkLockStmt(pass, st.Stmt, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			checkBlockingExpr(pass, e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			checkBlockingExpr(pass, e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						checkBlockingExpr(pass, e, held)
					}
				}
			}
		}
	}
}

// checkBlockingExpr reports blocking operations inside an expression
// evaluated while locks are held (receives, known-blocking calls).
func checkBlockingExpr(pass *Pass, expr ast.Expr, held map[string]token.Pos) {
	if expr == nil || len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				reportHeld(pass, held, e.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if desc := blockingCall(pass.Info, e); desc != "" {
				reportHeld(pass, held, e.Pos(), desc)
			}
		}
		return true
	})
}

// blockingCall describes a call known to block, or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	pn, tn := recvNamed(f)
	switch {
	case pn == "sync" && tn == "WaitGroup" && f.Name() == "Wait":
		return "sync.WaitGroup.Wait"
	case pn == "os" && tn == "File" && f.Name() == "Sync":
		return "fsync (os.File.Sync)"
	case f.Pkg() != nil && f.Pkg().Name() == "orb" && tn == "Client" && f.Name() == "Invoke":
		return "orb remote call (Invoke)"
	case f.Pkg() != nil && f.Pkg().Name() == "orb" && tn == "" && f.Name() == "Call":
		return "orb remote call (Call)"
	case f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Sleep":
		return "time.Sleep"
	case pn == "persist" && tn == "Batch" && f.Name() == "Commit":
		return "store commit (persist.Batch.Commit)"
	case pn == "txn" && tn == "Txn" && f.Name() == "Commit":
		return "transaction commit (txn.Txn.Commit)"
	}
	return ""
}

func reportHeld(pass *Pass, held map[string]token.Pos, pos token.Pos, what string) {
	for key, lockPos := range held {
		p := pass.Fset.Position(lockPos)
		pass.Reportf(pos, "%s while %s is held (locked at %s:%d): a blocked holder wedges every contender",
			what, key, filepath.Base(p.Filename), p.Line)
	}
}
