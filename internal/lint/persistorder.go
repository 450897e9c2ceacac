package lint

import (
	"go/ast"
)

// runStateKeyFuncs are the engine's key constructors for run and timer
// state. An Object.Set/Delete whose call mentions one of these persists
// scheduler state — exactly the writes that must ride the drain batch.
var runStateKeyFuncs = map[string]bool{"runKey": true, "timerRecKey": true}

// PersistOrder enforces the group-commit invariant inside
// internal/engine: run-state and timer-record writes commit only through
// a persist.Batch (the drain's, in flushRuns, or Instantiate's), one
// all-or-nothing store batch per evaluation drain. A direct
// persist.Object Set/Delete on a run key re-introduces the
// one-transaction-per-transition discipline (a 13x regression), and a
// direct store write bypasses the persist layer's locks and its
// all-or-nothing batch.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc: "in internal/engine, forbids persisting run/timer state via direct persist.Object " +
		"Set/Delete (must ride a persist.Batch, as flushRuns does) and any direct " +
		"store-layer Write/Delete (bypasses the persist layer's locks and batches)",
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
					"direct store.Store.%s from the engine bypasses the transactional persist layer (no locks, no all-or-nothing batch); go through persist.Batch or persist.Object",
					f.Name())
			}
			return true
		})
	}
	return nil
}
