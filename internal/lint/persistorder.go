package lint

import (
	"go/ast"
)

// runStateKeyFuncs are the engine's key constructors for run and timer
// state. An Object.Set/Delete whose call mentions one of these persists
// scheduler state — exactly the writes that must ride the drain batch.
var runStateKeyFuncs = map[string]bool{"runKey": true, "timerRecKey": true}

// PersistOrder enforces the PR-2 group-commit invariant inside
// internal/engine: run-state and timer-record writes commit only through
// the drain's persist.Batch (flushRuns), one transaction per evaluation
// drain. A direct persist.Object Set/Delete on a run key re-introduces
// the one-fsync-per-transition discipline (a 13x regression), and a
// direct store write bypasses the transactional intention log entirely
// (no crash atomicity). The pre-loop instantiation write, the one
// exception, carries a reasoned allow directive.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc: "in internal/engine, forbids persisting run/timer state via direct persist.Object " +
		"Set/Delete (must ride the drain's persist.Batch in flushRuns) and any direct " +
		"store-layer Write/Delete (bypasses the transactional intention log)",
	Run: runPersistOrder,
}

func runPersistOrder(pass *Pass) error {
	if !pathMatches(pass.Path, "internal/engine") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isMethod(pass.Info, call, "persist", "Object", "Set", "Delete") &&
				mentionsIdent(call, runStateKeyFuncs) {
				f := calleeFunc(pass.Info, call)
				pass.Reportf(call.Pos(),
					"run/timer state persisted via persist.Object.%s outside the drain batch; stage it with bufferRun/bufferTimerRec so flushRuns commits it in the drain's persist.Batch",
					f.Name())
				return true
			}
			if isMethod(pass.Info, call, "store", "Store", "Write", "Delete") {
				f := calleeFunc(pass.Info, call)
				pass.Reportf(call.Pos(),
					"direct store.Store.%s from the engine bypasses the transactional persist layer (no intention log, no crash atomicity); go through persist.Batch or persist.Object",
					f.Name())
			}
			return true
		})
	}
	return nil
}
