package engine

import (
	"fmt"

	"repro/internal/core"
)

// This file holds the reference the dirty-set scheduler is tested
// against: a full rescan of every run to a fixed point after each event,
// and a read-only probe that checks a dirty-set drain reached that same
// fixed point. Tests install either through Engine.evalHook
// (export_test.go); production engines never run them.

// evaluateFullRescan is the reference strategy: satisfaction passes
// over every run until a fixed point, O(tasks) per event.
func (i *Instance) evaluateFullRescan() {
	// State transitions feed the worklist even when this strategy ignores
	// it; drop the entries so the map stays bounded.
	clear(i.dirty)
	i.dirtyHeap = i.dirtyHeap[:0]
	progress := true
	for progress {
		progress = false
		for _, path := range i.plan.Paths {
			r, ok := i.runs[path]
			if !ok {
				continue
			}
			i.scans.Add(1)
			if !i.active(r) {
				continue
			}
			switch {
			case r.st.State == RunWaiting:
				if i.trySatisfy(r) {
					progress = true
				}
			case r.st.State == RunExecuting && r.task.Compound:
				if i.tryCompoundOutputs(r) {
					progress = true
				}
			}
		}
	}
}

// drainVerified is the dirty-set drain followed by verifyFixedPoint.
func (i *Instance) drainVerified() {
	i.drainDirty()
	i.verifyFixedPoint()
}

// verifyFixedPoint is the in-situ differential oracle: after a
// dirty-set drain it runs a read-only full-rescan satisfiability probe
// and panics if the probe finds progress the worklist missed — i.e. the
// two schedulers would not have reached the same fixed point.
func (i *Instance) verifyFixedPoint() {
	for _, path := range i.plan.Paths {
		r, ok := i.runs[path]
		if !ok || !i.active(r) {
			continue
		}
		switch {
		case r.st.State == RunWaiting:
			if r.task == i.root && !i.meta.Started {
				// A not-yet-started root waits for the client's Start,
				// not for dependency satisfaction (see trySatisfy).
				continue
			}
			if len(r.task.InputSets) == 0 {
				panic(fmt.Sprintf("scheduler divergence: %s has no input sets and should have started", path))
			}
			for _, set := range r.task.InputSets {
				if _, ok := i.satisfied(r, set.Objects, set.Notifications); ok {
					panic(fmt.Sprintf("scheduler divergence: %s input set %q satisfiable at quiescence", path, set.Name))
				}
			}
		case r.st.State == RunExecuting && r.task.Compound:
			for _, ob := range r.task.Outputs {
				if ob.Output.Kind == core.Mark && r.st.MarksEmitted[ob.Output.Name] {
					continue
				}
				if _, ok := i.satisfied(r, ob.Objects, ob.Notifications); ok {
					panic(fmt.Sprintf("scheduler divergence: %s output %q satisfiable at quiescence", path, ob.Output.Name))
				}
			}
		}
	}
}
