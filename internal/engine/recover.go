package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the engine's re-materialization path: everything that
// turns persisted instance state back into a live controller. Recover
// is the single-instance entry point (the original crash-restart path);
// ListPersisted, RecoverMatching and StopMatching are the set-oriented
// faces the sharded coordinator tier drives — a partition lease won
// re-materializes exactly that partition's instances, a lease lost
// stops exactly them — and the passivation roadmap item will reuse the
// same load path to wake a hibernated instance.

// Recover rebuilds an instance from its persisted state after a crash or
// restart: the schema is recompiled from its stored source, persisted
// reconfigurations are re-applied, run states are reloaded, and
// implementations that were executing are re-activated (at-least-once
// execution; atomic tasks get effective exactly-once because their
// effects commit with their outcome).
//
// Call persist.Registry.Recover first to roll forward the write-ahead
// log.
func (e *Engine) Recover(id string, compile SchemaCompiler) (*Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recoverLocked(id, compile, "explicit")
}

// recoverLocked loads, registers and starts one persisted instance.
// cause labels the recovery counter and span: "restart" (process came
// back and re-materialized its own state), "lease-steal" (a takeover
// peer re-materialized a dead owner's partition) or "explicit" (direct
// Recover call). Callers hold e.mu.
func (e *Engine) recoverLocked(id string, compile SchemaCompiler, cause string) (*Instance, error) {
	if _, dup := e.instances[id]; dup {
		return nil, fmt.Errorf("recover %s: %w", id, ErrInstanceExists)
	}
	start := e.clock.Now()
	inst, err := e.loadInstanceLocked(id, compile)
	if err != nil {
		return nil, err
	}
	e.instances[id] = inst
	e.met.instancesLive.Set(int64(len(e.instances)))
	e.reg.Counter(obs.MEngineRecoveries, "cause", cause).Inc()
	e.met.recoverySeconds.ObserveSince(e.clock, start)
	// The recovery span joins the instance's original trace (the trace
	// ID rode the persisted meta), so a stitched tree shows the steal:
	// the instance's trace continues on coordinator B under the same ID.
	e.tracer.Record(obs.Span{
		TraceID: inst.meta.TraceID, SpanID: obs.NewID(), Parent: inst.meta.TraceID,
		Name: "recover", Instance: id, Start: start, End: e.clock.Now(),
		Attrs: map[string]string{"cause": cause},
	})
	go inst.loop()
	inst.resumeExecuting()
	return inst, nil
}

// loadInstanceLocked re-materializes one instance from the store into a
// ready-to-start *Instance: schema recompiled, reconfigurations
// re-applied, run states reloaded, compounds re-activated, delay timers
// re-armed at their original absolute deadlines, and everything marked
// dirty for one full evaluation. It does not register the instance or
// start its controller — that split is what lets set-oriented callers
// (partition takeover, future passivation wake-ups) reuse the load path.
// Callers hold e.mu.
func (e *Engine) loadInstanceLocked(id string, compile SchemaCompiler) (*Instance, error) {
	var meta instanceMeta
	if err := e.preg.Peek(metaKey(id), &meta); err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	if meta.TraceID == "" {
		// Meta persisted before activation tracing existed: re-mint so
		// post-recovery spans still form a (new) tree.
		meta.TraceID = obs.NewID()
	}
	schema, err := compile(meta.SchemaName, []byte(meta.SchemaSource))
	if err != nil {
		return nil, fmt.Errorf("recover %s: recompile schema: %w", id, err)
	}
	root, err := schema.Root(meta.RootName)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	inst := e.newInstance(id, schema, root)
	inst.meta = meta

	// Re-apply persisted reconfigurations in order.
	for seq := 0; seq < meta.ReconfigSeq; seq++ {
		var rec reconfigRecord
		if err := e.preg.Peek(reconfigKey(id, seq), &rec); err != nil {
			return nil, fmt.Errorf("recover %s: reconfig %d: %w", id, seq, err)
		}
		for _, op := range rec.Ops {
			if err := op.Apply(schema, root); err != nil {
				return nil, fmt.Errorf("recover %s: re-apply reconfig %d: %w", id, seq, err)
			}
		}
	}
	inst.reconfigSeq = meta.ReconfigSeq
	// newInstance derived the evaluation order (and the dependency index)
	// from the freshly recompiled schema, before the reconfigurations
	// above mutated it; recompute so reconfiguration-added tasks are
	// evaluated and listed again after recovery.
	inst.rebuildOrder()

	// Reload run states.
	prefix := store.ID("inst/" + id + "/run/")
	ids, err := e.preg.Store().List(prefix)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	for _, sid := range ids {
		var st runState
		if err := e.preg.Peek(sid, &st); err != nil {
			return nil, fmt.Errorf("recover %s: run %s: %w", id, sid, err)
		}
		task := schema.Lookup(st.Path)
		if task == nil {
			// The task was removed by reconfiguration after this state
			// was written, or the path belongs to a reset subtree;
			// ignore.
			continue
		}
		inst.runs[st.Path] = inst.newRun(task, st)
	}
	if inst.runs[root.Path()] == nil {
		inst.runs[root.Path()] = inst.newRun(root, runState{Path: root.Path(), State: RunWaiting})
	}
	// A crash between a compound's start persisting and its constituents'
	// first persists leaves the compound Executing with members missing;
	// re-run activation (existing runs are kept) so recovery cannot stall
	// there. Walk in schema order so outer compounds activate first.
	for _, path := range inst.order {
		if r, ok := inst.runs[path]; ok && r.st.State == RunExecuting && r.task.Compound {
			inst.activateConstituents(r.task)
		}
	}
	// Re-arm pending delay timers from their persisted records at their
	// original absolute deadlines — a delay survives the crash and fires
	// once at the instant it was armed for, not a full duration after
	// restart.
	if err := inst.rearmTimers(); err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	// Recovery cannot tell which dependencies became satisfiable while the
	// instance was down: one full evaluation over every reloaded run.
	inst.markAllDirty()
	return inst, nil
}

// ListPersisted returns the distinct instance IDs with persisted state
// in st, in lexical order — the inventory a recovery pass (or a
// partition takeover) walks.
func ListPersisted(st store.Store) ([]string, error) {
	ids, err := st.List("inst/")
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, id := range ids {
		rest := strings.TrimPrefix(string(id), "inst/")
		inst, _, _ := strings.Cut(rest, "/")
		if inst == "" || seen[inst] {
			continue
		}
		seen[inst] = true
		out = append(out, inst)
	}
	sort.Strings(out)
	return out, nil
}

// RecoverMatching re-materializes every persisted instance accepted by
// match that is not already live, returning the IDs recovered. Failures
// are collected (joined into the returned error) rather than aborting
// the pass — one corrupt instance must not keep a whole partition's
// peers from coming back. A nil match recovers everything. Recoveries
// are counted under cause "restart"; takeover paths that know better
// call RecoverMatchingCause.
func (e *Engine) RecoverMatching(compile SchemaCompiler, match func(id string) bool) ([]string, error) {
	return e.RecoverMatchingCause(compile, match, "restart")
}

// RecoverMatchingCause is RecoverMatching with an explicit recovery
// cause for the engine_recoveries_total counter and the recovery spans
// ("restart", "lease-steal", "explicit").
func (e *Engine) RecoverMatchingCause(compile SchemaCompiler, match func(id string) bool, cause string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids, err := ListPersisted(e.preg.Store())
	if err != nil {
		return nil, err
	}
	var recovered []string
	var errs []error
	for _, id := range ids {
		if match != nil && !match(id) {
			continue
		}
		if _, live := e.instances[id]; live {
			continue
		}
		if _, err := e.recoverLocked(id, compile, cause); err != nil {
			errs = append(errs, err)
			continue
		}
		recovered = append(recovered, id)
	}
	return recovered, errors.Join(errs...)
}

// StopMatching stops every live instance accepted by match — halting
// controllers and cancelling executing implementations, persistent
// state left recoverable — and returns the IDs stopped. It is the
// teardown half of partition ownership: losing a lease stops exactly
// the partition's instances so the new owner can re-materialize them.
func (e *Engine) StopMatching(match func(id string) bool) []string {
	e.mu.Lock()
	var victims []*Instance
	for id, inst := range e.instances {
		if match == nil || match(id) {
			victims = append(victims, inst)
		}
	}
	e.mu.Unlock()
	// Stop outside the table lock: Stop blocks on the controller loop
	// draining, and the loop's teardown re-enters the engine (drop).
	out := make([]string, 0, len(victims))
	for _, inst := range victims {
		inst.Stop()
		out = append(out, inst.id)
	}
	sort.Strings(out)
	return out
}
