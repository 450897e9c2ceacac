package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/store"
)

// This file is the engine's re-materialization path: everything that
// turns persisted instance state back into a live controller. Recover
// is the single-instance entry point (the original crash-restart path);
// RecoverMatching and StopMatching are the set-oriented faces the
// sharded coordinator tier drives — a partition lease won
// re-materializes exactly that partition's instances, a lease lost
// stops exactly them — and the passivation roadmap item will reuse the
// same load path to wake a hibernated instance.
//
// A recovery pass pays per-store and per-schema work once, not once per
// instance: it lists the store once and hands each instance its slice
// of the listing, and it compiles each distinct schema once (see
// recoveryPass).

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
	keys, err := e.preg.Store().List(instPrefix(id))
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	return e.recoverLocked(id, keys, newRecoveryPass(compile), "explicit")
}

// recoveryPass is the state one recovery pass shares across the
// instances it loads: the schemas it has compiled, keyed by name and
// source. Instances of one schema share the compiled *core.Schema, as
// live Instantiate callers do, and one copy of its source; a
// reconfigured instance works on a clone. The pass is dropped when it
// ends, so there is no cache to bound or invalidate.
type recoveryPass struct {
	compile SchemaCompiler
	schemas map[schemaKey]passSchema
}

type schemaKey struct{ name, source string }

// passSchema is one schema a pass compiled and the source text every
// recovered meta of it shares.
type passSchema struct {
	schema *core.Schema
	source string
}

func newRecoveryPass(compile SchemaCompiler) *recoveryPass {
	return &recoveryPass{compile: compile, schemas: make(map[schemaKey]passSchema)}
}

// meta reads id's meta record and the compiled schema it names. The
// schema source is looked up as a view of the record's bytes and copied
// only for a schema the pass has not compiled yet, so the metas of one
// schema share one source string.
func (p *recoveryPass) meta(st store.Store, id string) (instanceMeta, *core.Schema, error) {
	data, err := st.Read(metaKey(id))
	if err != nil {
		return instanceMeta{}, nil, fmt.Errorf("read meta: %w", err)
	}
	var v metaView
	if persist.IsRecord(data) {
		err = persist.Decode(data, &v)
	} else {
		// A gob-era meta: the source arrives as a string of its own.
		err = persist.Decode(data, &v.meta)
		v.source = []byte(v.meta.SchemaSource)
	}
	if err != nil {
		return instanceMeta{}, nil, fmt.Errorf("decode meta: %w", err)
	}
	k := schemaKey{v.meta.SchemaName, string(v.source)}
	ps, ok := p.schemas[k]
	if !ok {
		s, err := p.compile(v.meta.SchemaName, v.source)
		if err != nil {
			return instanceMeta{}, nil, fmt.Errorf("recompile schema: %w", err)
		}
		ps = passSchema{schema: s, source: s.Source}
		if ps.source != string(v.source) {
			ps.source = string(v.source)
		}
		k.source = ps.source
		p.schemas[k] = ps
	}
	v.meta.SchemaSource = ps.source
	return v.meta, ps.schema, nil
}

// metaView decodes a codec meta record with its schema source left as a
// view of the record (see instanceMeta.readRecord).
type metaView struct {
	meta   instanceMeta
	source []byte
}

// ReadRecord is the decode half of persist.Record.
func (v *metaView) ReadRecord(data []byte) (err error) {
	v.source, err = v.meta.readRecord(data)
	return err
}

// recoverLocked loads, registers and starts one persisted instance from
// keys, its slice of the store listing. cause labels the recovery
// counter and span: "restart" (process came back and re-materialized
// its own state), "lease-steal" (a takeover peer re-materialized a dead
// owner's partition) or "explicit" (direct Recover call). Callers hold
// e.mu.
func (e *Engine) recoverLocked(id string, keys []store.ID, pass *recoveryPass, cause string) (*Instance, error) {
	if e.taken(id) {
		return nil, fmt.Errorf("recover %s: %w", id, ErrInstanceExists)
	}
	start := e.clock.Now()
	inst, err := e.loadInstanceLocked(id, keys, pass)
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
// ready-to-start *Instance: schema recompiled (once per pass),
// reconfigurations re-applied, run states reloaded, compounds
// re-activated, delay timers re-armed at their original absolute
// deadlines, and everything marked dirty for one full evaluation. keys
// are the instance's own keys, in lexical order, from the pass's
// listing. It does not register the instance or start its controller —
// that split is what lets set-oriented callers (partition takeover,
// future passivation wake-ups) reuse the load path. Callers hold e.mu.
func (e *Engine) loadInstanceLocked(id string, keys []store.ID, pass *recoveryPass) (*Instance, error) {
	meta, schema, err := pass.meta(e.preg.Store(), id)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	if meta.TraceID == "" {
		// Meta persisted before activation tracing existed: re-mint so
		// post-recovery spans still form a (new) tree.
		meta.TraceID = obs.NewID()
	}
	if meta.ReconfigSeq > 0 {
		// The compiled schema is shared with the pass's other instances
		// of it: reconfigure a copy, as live Reconfigure does.
		schema = schema.Clone()
	}
	root, err := schema.Root(meta.RootName)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	// Re-apply persisted reconfigurations in order, before newInstance
	// derives the evaluation order and dependency index, so
	// reconfiguration-added tasks are evaluated and listed after
	// recovery.
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
	inst := e.newInstance(id, schema, root)
	inst.meta = meta
	inst.reconfigSeq = meta.ReconfigSeq

	// Reload run states.
	for _, sid := range keysWithPrefix(keys, runPrefix(id)) {
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
	for _, path := range inst.plan.Paths {
		if r, ok := inst.runs[path]; ok && r.st.State == RunExecuting && r.task.Compound {
			inst.activateConstituents(r.task)
		}
	}
	// Re-arm pending delay timers from their persisted records at their
	// original absolute deadlines — a delay survives the crash and fires
	// once at the instant it was armed for, not a full duration after
	// restart.
	if err := inst.rearmTimers(keysWithPrefix(keys, timerPrefix(id))); err != nil {
		return nil, fmt.Errorf("recover %s: %w", id, err)
	}
	// Recovery cannot tell which dependencies became satisfiable while the
	// instance was down: one full evaluation over every reloaded run.
	inst.markAllDirty()
	return inst, nil
}

// keysWithPrefix returns the run of keys, which are in lexical order,
// that start with prefix: in a sorted listing every prefix's keys are
// contiguous.
func keysWithPrefix(keys []store.ID, prefix store.ID) []store.ID {
	lo := sort.Search(len(keys), func(i int) bool { return keys[i] >= prefix })
	hi := lo
	for hi < len(keys) && strings.HasPrefix(string(keys[hi]), string(prefix)) {
		hi++
	}
	return keys[lo:hi]
}

// persistedInstance is one instance's share of a store listing.
type persistedInstance struct {
	id   string
	keys []store.ID
}

// groupByInstance splits a lexically ordered listing of "inst/" into
// per-instance runs of keys, ordered by instance ID — the inventory a
// recovery pass (or a partition takeover) walks. Each instance's keys
// share the prefix "inst/<id>/" and so are contiguous; the groups are
// re-sorted by ID because key order and ID order differ when one ID is
// a prefix of another ("inst/a-b/" sorts before "inst/a/").
func groupByInstance(keys []store.ID) []persistedInstance {
	var out []persistedInstance
	for i := 0; i < len(keys); {
		rest := strings.TrimPrefix(string(keys[i]), "inst/")
		id, _, _ := strings.Cut(rest, "/")
		prefix := instPrefix(id)
		j := i + 1
		for j < len(keys) && strings.HasPrefix(string(keys[j]), string(prefix)) {
			j++
		}
		if id != "" {
			out = append(out, persistedInstance{id: id, keys: keys[i:j]})
		}
		i = j
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
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
// ("restart", "lease-steal", "explicit"). The pass lists the store once
// and compiles each distinct schema once.
func (e *Engine) RecoverMatchingCause(compile SchemaCompiler, match func(id string) bool, cause string) ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys, err := e.preg.Store().List("inst/")
	if err != nil {
		return nil, err
	}
	pass := newRecoveryPass(compile)
	var recovered []string
	var errs []error
	for _, p := range groupByInstance(keys) {
		if match != nil && !match(p.id) {
			continue
		}
		if e.taken(p.id) {
			continue
		}
		if _, err := e.recoverLocked(p.id, p.keys, pass, cause); err != nil {
			errs = append(errs, err)
			continue
		}
		recovered = append(recovered, p.id)
	}
	return recovered, errors.Join(errs...)
}

// StopMatching stops every live instance accepted by match — halting
// controllers and cancelling executing implementations, persistent
// state left recoverable — and returns the IDs stopped. It is the
// teardown half of partition ownership: losing a lease stops exactly
// the partition's instances so the new owner can re-materialize them.
// A matching instance still committing its Instantiate never starts.
func (e *Engine) StopMatching(match func(id string) bool) []string {
	e.mu.Lock()
	var victims []*Instance
	for id, inst := range e.instances {
		if match == nil || match(id) {
			victims = append(victims, inst)
		}
	}
	for id := range e.reserved {
		e.reserved[id] = e.reserved[id] || match == nil || match(id) // Instantiate will not start it
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
