package sim

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/shard"
	"repro/internal/txn"
)

// hostFor resolves the coordinator slot that must run instance id: slot
// 0 in single-coordinator worlds, the live owner of the instance's
// partition in sharded ones.
func (w *World) hostFor(id string) (int, error) {
	if !w.multi {
		if !w.CoordinatorAlive(0) {
			return 0, errors.New("sim: coordinator is down")
		}
		return 0, nil
	}
	p := shard.PartitionOf(id, w.parts)
	o := w.owner[p]
	if o < 0 || !w.CoordinatorAlive(o) {
		return 0, fmt.Errorf("sim: partition %d (instance %q) has no live coordinator", p, id)
	}
	return o, nil
}

// Instantiate creates an engine instance of a schema previously
// registered with Compile. root optionally names the top-level task
// (empty selects the schema's single root). In sharded worlds the
// instance lands on its partition's owning coordinator.
func (w *World) Instantiate(id, schemaName, root string) error {
	w.mu.Lock()
	sch := w.compiled[schemaName]
	_, dup := w.insts[id]
	w.mu.Unlock()
	if sch == nil {
		return fmt.Errorf("sim: instantiate %s: unknown schema %q (Compile it first)", id, schemaName)
	}
	if dup {
		return fmt.Errorf("sim: instantiate %s: duplicate instance id", id)
	}
	host, err := w.hostFor(id)
	if err != nil {
		return err
	}
	w.action("instantiate %s schema=%s", id, schemaName)
	// Track before the engine starts the controller: Park/Wake
	// callbacks must find the entry from the first iteration.
	w.mu.Lock()
	w.insts[id] = &instTrack{host: host}
	w.schemas[id] = sch
	w.order = append(w.order, id)
	w.mu.Unlock()
	inst, err := w.coords[host].eng.Instantiate(id, sch, root)
	if err != nil {
		w.mu.Lock()
		delete(w.insts, id)
		delete(w.schemas, id)
		w.order = w.order[:len(w.order)-1]
		w.mu.Unlock()
		return err
	}
	w.setInstance(id, inst)
	return w.settleAndRecord()
}

// setInstance publishes the engine handle for a tracked instance.
func (w *World) setInstance(id string, inst *engine.Instance) {
	w.mu.Lock()
	w.insts[id].inst = inst
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// tracked returns the live engine instance for id.
func (w *World) tracked(id string) (*engine.Instance, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.insts[id]
	if !ok || t.inst == nil {
		return nil, fmt.Errorf("sim: no live instance %q", id)
	}
	return t.inst, nil
}

// Start starts an instance's root task with the given input set.
func (w *World) Start(id, set string, inputs registry.Objects) error {
	inst, err := w.tracked(id)
	if err != nil {
		return err
	}
	w.action("start %s set=%s %s", id, set, renderObjects(inputs))
	if err := inst.Start(set, inputs); err != nil {
		return err
	}
	return w.settleAndRecord()
}

// Ready returns the gated activations, deterministically ordered by
// (instance, path, iteration, attempt, where).
func (w *World) Ready() []Ready {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readyLocked()
}

func (w *World) readyLocked() []Ready {
	out := make([]Ready, 0, len(w.gate))
	for k, e := range w.gate {
		out = append(out, Ready{
			Instance: k.inst, Path: k.path, Where: k.where, Code: e.code,
			Attempt: k.attempt, Iteration: k.iteration,
		})
	}
	sortReady(out)
	return out
}

func sortReady(rs []Ready) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Where < b.Where
	})
}

// Release unblocks a gated activation. outcome overrides the scripted
// (Bind) or default outcome; fail injects a system-level failure
// instead, driving the engine's retry/abort mapping.
func (w *World) Release(r Ready, outcome string, fail bool) error {
	key := gateKey{inst: r.Instance, path: r.Path, attempt: r.Attempt, iteration: r.Iteration, where: r.Where}
	w.mu.Lock()
	e, ok := w.gate[key]
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("sim: %s/%s attempt=%d iter=%d is not gated at %s", r.Instance, r.Path, r.Attempt, r.Iteration, r.Where)
	}
	var cmd releaseCmd
	if fail {
		cmd.err = fmt.Errorf("sim: injected system failure (%s)", e.code)
	} else {
		out := outcome
		if out == "" {
			out = w.nextOutcome(e)
		}
		objects, err := w.synthesize(key.inst, key.path, out, e.inputs)
		if err != nil {
			return err
		}
		cmd.outcome, cmd.objects = out, objects
	}
	if got, ok := w.takeGate(key); !ok || got != e {
		return fmt.Errorf("sim: %s/%s is no longer gated", r.Instance, r.Path)
	}
	if fail {
		w.action("release %s %s/%s attempt=%d iter=%d -> FAIL", r.Where, r.Instance, r.Path, r.Attempt, r.Iteration)
	} else {
		w.action("release %s %s/%s attempt=%d iter=%d -> %s", r.Where, r.Instance, r.Path, r.Attempt, r.Iteration, cmd.outcome)
	}
	e.release <- cmd
	return w.settleAndRecord()
}

// nextOutcome picks the outcome for a release: the code's scripted
// sequence if Bind was called, else the first declared plain outcome.
func (w *World) nextOutcome(e *gateEntry) string {
	w.mu.Lock()
	if seq, ok := w.binds[e.code]; ok && len(seq.outcomes) > 0 {
		i := seq.next
		if i >= len(seq.outcomes) {
			i = len(seq.outcomes) - 1
		}
		seq.next++
		w.mu.Unlock()
		return seq.outcomes[i]
	}
	sch := w.schemas[e.key.inst]
	w.mu.Unlock()
	if sch == nil {
		return ""
	}
	task := sch.Lookup(e.key.path)
	if task == nil {
		return ""
	}
	outs := task.Class.Outcomes(core.Outcome)
	if len(outs) == 0 {
		return ""
	}
	return outs[0].Name
}

// synthesize builds the released objects for an outcome from the
// schema's declaration: an input object with the same name (and a
// conforming class) is echoed through, anything else gets a synthetic
// string payload.
func (w *World) synthesize(inst, path, outcome string, inputs registry.Objects) (registry.Objects, error) {
	w.mu.Lock()
	sch := w.schemas[inst]
	w.mu.Unlock()
	if sch == nil {
		return nil, fmt.Errorf("sim: no schema for instance %q", inst)
	}
	task := sch.Lookup(path)
	if task == nil {
		return nil, fmt.Errorf("sim: instance %q has no task %q", inst, path)
	}
	out := task.Class.Output(outcome)
	if out == nil {
		return nil, fmt.Errorf("sim: taskclass %s has no output %q", task.Class.Name, outcome)
	}
	if out.Kind == core.Mark {
		return nil, fmt.Errorf("sim: %q is a mark of taskclass %s, not a releasable outcome", outcome, task.Class.Name)
	}
	objects := make(registry.Objects, len(out.Objects))
	for _, f := range out.Objects {
		if v, ok := inputs[f.Name]; ok && sch.AssignableTo(v.Class, f.Class) {
			objects[f.Name] = v
			continue
		}
		objects[f.Name] = registry.Value{Class: f.Class, Data: "sim:" + f.Name}
	}
	return objects, nil
}

// Drain releases every gated activation, lowest-sorted first, until
// none remain (scripted/default outcomes apply). Armed delay timers are
// left armed; pair with AdvanceToNext.
func (w *World) Drain() error {
	w.action("drain")
	for rounds := 0; rounds < 100000; rounds++ {
		rs := w.Ready()
		if len(rs) == 0 {
			return nil
		}
		if err := w.Release(rs[0], "", false); err != nil {
			return err
		}
	}
	return errors.New("sim: drain did not converge after 100000 releases")
}

// Advance moves virtual time forward and settles: every delay or
// blacklist expiry the move implies has taken effect when it returns.
func (w *World) Advance(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("sim: cannot advance by %s", d)
	}
	w.action("advance %s @ +%s", d, w.clock.Now().Add(d).Sub(w.epoch))
	w.clock.Advance(d)
	return w.settleAndRecord()
}

// AdvanceToNext advances exactly to the earliest armed delay deadline
// and returns the distance moved.
func (w *World) AdvanceToNext() (time.Duration, error) {
	w.mu.Lock()
	var next time.Time
	for _, at := range w.armed {
		if next.IsZero() || at.Before(next) {
			next = at
		}
	}
	w.mu.Unlock()
	if next.IsZero() {
		return 0, errors.New("sim: no armed delay timers")
	}
	d := next.Sub(w.clock.Now())
	if d < 0 {
		d = 0
	}
	w.action("advance next (%s) @ +%s", d, next.Sub(w.epoch))
	w.clock.Advance(d)
	return d, w.settleAndRecord()
}

// Now returns the current virtual instant.
func (w *World) Now() time.Time { return w.clock.Now() }

// releaseWhere unblocks every gated activation hosted by a killed
// component with err. Callers must have severed the component's
// connections first so peers observe transport failures, never these
// error replies.
func (w *World) releaseWhere(where string, err error) {
	w.mu.Lock()
	var victims []*gateEntry
	for k, e := range w.gate {
		if k.where == where {
			delete(w.gate, k)
			victims = append(victims, e)
		}
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, e := range victims {
		e.release <- releaseCmd{err: err}
	}
}

// KillExecutor crashes executor i: connections are severed first (every
// in-flight dispatch observes a transport failure and fails over), then
// its gated handlers are unblocked with an error whose reply lands on
// the already-dead connections, then the server is reaped. The naming
// binding stays, as with a real SIGKILLed executor.
func (w *World) KillExecutor(i int) error {
	if i < 0 || i >= len(w.execs) {
		return fmt.Errorf("sim: no executor %d", i)
	}
	ex := w.execs[i]
	if !ex.alive {
		return fmt.Errorf("sim: executor %d is already down", i)
	}
	w.action("kill executor %d (%s)", i, ex.addr)
	ex.srv.Sever()
	w.releaseWhere(ex.name, errors.New("sim: executor crashed"))
	ex.srv.Close()
	ex.alive = false
	ex.srv = nil
	return w.settleAndRecord()
}

// RecoverExecutor restarts a killed executor at its old address; its
// permanent naming membership makes it dispatchable again (after any
// blacklist on it expires with virtual time).
func (w *World) RecoverExecutor(i int) error {
	if i < 0 || i >= len(w.execs) {
		return fmt.Errorf("sim: no executor %d", i)
	}
	if w.execs[i].alive {
		return fmt.Errorf("sim: executor %d is already up", i)
	}
	w.action("recover executor %d", i)
	if err := w.startExecutor(i); err != nil {
		return err
	}
	return w.settleAndRecord()
}

// KillNaming makes location resolution fail (dispatches surface
// system-level failures into the engine's retry/abort mapping) until
// RecoverNaming.
func (w *World) KillNaming() error {
	w.mu.Lock()
	up := w.namingUp
	w.namingUp = false
	w.mu.Unlock()
	if !up {
		return errors.New("sim: naming is already down")
	}
	w.action("kill naming")
	return w.settleAndRecord()
}

// RecoverNaming restores resolution; the registered bindings survived
// (the simulated naming "restarts from its peers").
func (w *World) RecoverNaming() error {
	w.mu.Lock()
	up := w.namingUp
	w.namingUp = true
	w.mu.Unlock()
	if up {
		return errors.New("sim: naming is already up")
	}
	w.action("recover naming")
	return w.settleAndRecord()
}

// stopCoordinator stops coordinator slot i: every instance controller
// it hosts, the engine (and its timing wheel), its pool invoker, and
// the gated activations it owned. The store survives.
func (w *World) stopCoordinator(i int) {
	c := w.coords[i]
	w.mu.Lock()
	var tracked []*engine.Instance
	hosted := make(map[string]bool)
	for id, t := range w.insts {
		if t.host != i {
			continue
		}
		hosted[id] = true
		if t.inst != nil {
			tracked = append(tracked, t.inst)
		}
	}
	for id := range hosted {
		delete(w.insts, id)
		for key := range w.armed {
			if strings.HasPrefix(key, id+"|") {
				delete(w.armed, key)
			}
		}
	}
	w.mu.Unlock()
	for _, inst := range tracked {
		inst.Stop()
	}
	c.eng.Close()
	// Retire the invoker BEFORE unblocking executor-side handlers: the
	// old generation's dispatch workers are still parked inside Invoke,
	// and their wakeup (the release reply, or a transport error if a
	// later kill severs the connection under the reply) must not fail
	// over onto another executor — a zombie re-dispatch would gate an
	// activation nobody tracks, colliding with the recovered
	// coordinator's own dispatch of the same activation.
	if c.inv != nil {
		c.inv.Close()
	}
	// Purge the dead coordinator's slice of the gated frontier
	// synchronously: its own local handlers (where == its name) and the
	// executor-side handlers of the instances it hosted. Local handlers
	// do wake through their cancelled run contexts, but that wakeup is
	// asynchronous — the engine's Stop does not wait for the
	// implementation goroutine — so leaving their entries to self-clean
	// would race the kill-time frontier snapshot and make the trace's
	// ready-diff depend on goroutine scheduling. Executor-side handlers
	// cannot wake at all (remote contexts never cancel): the release
	// below unblocks them; their replies land on clients nobody is
	// waiting for. Every pre-kill dispatch has already gated (the settle
	// barrier equates in-flight and gated counts before each action), so
	// nothing re-publishes after this purge. Surviving coordinators'
	// entries are untouched.
	w.mu.Lock()
	var victims []*gateEntry
	for k, e := range w.gate {
		if k.where == c.name || hosted[k.inst] {
			delete(w.gate, k)
			victims = append(victims, e)
		}
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, e := range victims {
		e.release <- releaseCmd{err: errors.New("sim: coordinator crashed")}
	}
	c.alive = false
	c.inv = nil
	c.eng = nil
	c.preg = nil
	c.ps = nil
	c.views = nil
}

// takeoverPartition moves partition p onto coordinator slot idx,
// driving the production takeover sequence: per-partition WAL
// roll-forward with a throwaway registry, mount into the owner's
// partitioned store, then re-materialization of every persisted
// instance of the partition through the real engine recovery path.
// Returns how many instances were re-materialized.
func (w *World) takeoverPartition(idx, p int) (int, error) {
	preg := persist.NewRegistry(w.pstores[p], txn.NewManager(w.pstores[p]), nil)
	if _, err := preg.Recover(); err != nil {
		return 0, fmt.Errorf("sim: recover partition %d: %w", p, err)
	}
	c := w.coords[idx]
	// A fresh (healthy) view: the takeover opens the partition's shared
	// durable state anew, even when the adopting coordinator has other
	// wedged mounts.
	w.mountView(c, p)
	w.mu.Lock()
	ids := append([]string(nil), w.order...)
	w.mu.Unlock()
	n := 0
	for _, id := range ids {
		if shard.PartitionOf(id, w.parts) != p {
			continue
		}
		w.mu.Lock()
		_, live := w.insts[id]
		if !live {
			w.insts[id] = &instTrack{host: idx}
		}
		w.mu.Unlock()
		if live {
			continue
		}
		inst, err := c.eng.Recover(id, sema.CompileSource)
		if err != nil {
			return n, fmt.Errorf("sim: recover %s on %s: %w", id, c.name, err)
		}
		w.setInstance(id, inst)
		n++
	}
	return n, nil
}

// failover reassigns every partition the dead coordinator slot owned to
// the rendezvous-preferred survivor, in ascending partition order — the
// deterministic outcome of the production lease race. With no survivor
// the partition is orphaned until a coordinator rejoins.
func (w *World) failover(dead int) error {
	for p := 0; p < w.parts; p++ {
		if w.owner[p] != dead {
			continue
		}
		next := w.preferredOwner(p, nil)
		w.owner[p] = next
		if next < 0 {
			w.action("partition %d orphaned (no live coordinator)", p)
			continue
		}
		n, err := w.takeoverPartition(next, p)
		if err != nil {
			return err
		}
		w.action("takeover partition %d -> %s (%d instances re-materialized)", p, w.coordName(next), n)
	}
	return nil
}

// CrashCoordinator kills coordinator slot i: controllers stop,
// in-flight activations are abandoned (durable state — run states,
// timer records — survives in the store), executors keep running. In
// sharded worlds the survivors immediately take the dead slot's
// partitions over and re-materialize its instances.
func (w *World) CrashCoordinator(i int) error {
	if i < 0 || i >= len(w.coords) {
		return fmt.Errorf("sim: no coordinator %d", i)
	}
	if !w.coords[i].alive {
		return errors.New("sim: coordinator is already down")
	}
	if w.multi {
		w.action("kill coordinator %d (%s)", i, w.coordName(i))
	} else {
		w.action("kill coordinator")
	}
	w.stopCoordinator(i)
	if w.multi {
		if err := w.failover(i); err != nil {
			return err
		}
	}
	return w.settleAndRecord()
}

// RecoverCoordinator reboots coordinator slot i over the surviving
// store and drives the real recovery paths: WAL roll-forward, schema
// recompilation, run-state reload, delay re-arming at original absolute
// deadlines, and re-activation of implementations that were executing.
// In sharded worlds the rejoined coordinator claims only orphaned
// partitions (live owners keep theirs, as with production leases).
func (w *World) RecoverCoordinator(i int) error {
	if i < 0 || i >= len(w.coords) {
		return fmt.Errorf("sim: no coordinator %d", i)
	}
	if w.coords[i].alive {
		return errors.New("sim: coordinator is already up")
	}
	if w.multi {
		w.action("recover coordinator %d (%s)", i, w.coordName(i))
		if err := w.bootCoordinator(i, false); err != nil {
			return err
		}
		for p := 0; p < w.parts; p++ {
			if w.owner[p] != -1 {
				continue
			}
			w.owner[p] = i
			n, err := w.takeoverPartition(i, p)
			if err != nil {
				return err
			}
			w.action("takeover partition %d -> %s (%d instances re-materialized)", p, w.coordName(i), n)
		}
		return w.settleAndRecord()
	}
	w.action("recover coordinator")
	if err := w.bootCoordinator(i, true); err != nil {
		return err
	}
	w.mu.Lock()
	ids := append([]string(nil), w.order...)
	w.mu.Unlock()
	for _, id := range ids {
		w.mu.Lock()
		w.insts[id] = &instTrack{}
		w.mu.Unlock()
		inst, err := w.coords[i].eng.Recover(id, sema.CompileSource)
		if err != nil {
			return fmt.Errorf("sim: recover %s: %w", id, err)
		}
		w.setInstance(id, inst)
	}
	return w.settleAndRecord()
}

// WedgeDisk fail-stops the write path of every partition-store view
// live coordinator slot i currently mounts — "this coordinator's disk
// went bad": reads keep succeeding (the in-memory index survives),
// every flush fails with store.ErrWedged, and execution keeps running
// ahead of an increasingly stale durable state. The shared per-
// partition stores are untouched, so a healthy peer can still
// re-materialize from them once DegradeCoordinator hands the wedged
// partitions over.
func (w *World) WedgeDisk(i int) error {
	if !w.multi {
		return errors.New("sim: disk wedging needs a sharded world (coordinators >= 2)")
	}
	if i < 0 || i >= len(w.coords) {
		return fmt.Errorf("sim: no coordinator %d", i)
	}
	c := w.coords[i]
	if !c.alive {
		return errors.New("sim: coordinator is down")
	}
	var parts []int
	for p, v := range c.views {
		if v.Wedged() == nil {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return fmt.Errorf("sim: %s mounts no healthy partition views to wedge", c.name)
	}
	sort.Ints(parts)
	w.action("diskwedge %s (partitions %s)", c.name, joinInts(parts))
	for _, p := range parts {
		c.views[p].Wedge(nil)
	}
	return w.settleAndRecord()
}

// DiskWedged reports whether live coordinator slot i still owns at
// least one partition whose store view is wedged — the condition
// DegradeCoordinator resolves.
func (w *World) DiskWedged(i int) bool {
	if !w.multi || i < 0 || i >= len(w.coords) {
		return false
	}
	c := w.coords[i]
	if c == nil || !c.alive {
		return false
	}
	for p, v := range c.views {
		if v.Wedged() != nil && w.owner[p] == i {
			return true
		}
	}
	return false
}

// DegradeCoordinator hands every wedged partition of live coordinator
// slot i over to a healthy peer — the simulation twin of the production
// quarantine path (PartitionedStore health sink → shard.Manager
// quarantine → lease release → peer takeover): the sick coordinator
// stays up and keeps any healthy partitions, but each wedged
// partition's instances stop, its view unmounts, ownership moves to the
// rendezvous-preferred healthy peer, and the peer re-materializes the
// in-flight instances from the shared partition store. Writes the
// wedge swallowed are gone: a re-materialized instance resumes from its
// last durable state and may re-run work it already finished in memory
// (at-least-once) — exactly the contract the production handoff offers.
// The degrade action lines name the re-materialized instances so trace
// checkers (see checkInvariants) can scope their exactly-once
// expectations around the handoff.
func (w *World) DegradeCoordinator(i int) error {
	if !w.multi {
		return errors.New("sim: degrade needs a sharded world (coordinators >= 2)")
	}
	if i < 0 || i >= len(w.coords) {
		return fmt.Errorf("sim: no coordinator %d", i)
	}
	c := w.coords[i]
	if !c.alive {
		return errors.New("sim: coordinator is down")
	}
	var parts []int
	for p, v := range c.views {
		if v.Wedged() != nil && w.owner[p] == i {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return fmt.Errorf("sim: %s has no wedged partitions to degrade (WedgeDisk first)", c.name)
	}
	sort.Ints(parts)
	for _, p := range parts {
		ids := w.stopPartition(i, p)
		c.ps.Unmount(p)
		delete(c.views, p)
		// Never hand the partition back to the coordinator being degraded
		// (the production manager's quarantine set refuses re-acquisition
		// even when every peer is also sick).
		next := w.preferredOwner(p, func(j int) bool { return j == i })
		w.owner[p] = next
		if next < 0 {
			w.action("degrade %s: partition %d orphaned (no live coordinator) (insts: %s)", c.name, p, joinIDs(ids))
			continue
		}
		if _, err := w.takeoverPartition(next, p); err != nil {
			return err
		}
		w.action("degrade %s: partition %d -> %s (insts: %s)", c.name, p, w.coordName(next), joinIDs(ids))
	}
	return w.settleAndRecord()
}

// stopPartition stops every instance of partition p hosted on
// coordinator slot i and purges their gate entries and armed-timer
// index entries, returning the stopped instance IDs sorted. The
// instances' durable state survives in the shared partition store; the
// coordinator, its engine and its other partitions keep running.
func (w *World) stopPartition(i, p int) []string {
	w.mu.Lock()
	var ids []string
	var tracked []*engine.Instance
	for id, t := range w.insts {
		if t.host != i || shard.PartitionOf(id, w.parts) != p {
			continue
		}
		ids = append(ids, id)
		if t.inst != nil {
			tracked = append(tracked, t.inst)
		}
	}
	for _, id := range ids {
		delete(w.insts, id)
		for key := range w.armed {
			if strings.HasPrefix(key, id+"|") {
				delete(w.armed, key)
			}
		}
	}
	w.mu.Unlock()
	for _, inst := range tracked {
		inst.Stop()
	}
	// Purge the stopped instances' slice of the gated frontier
	// synchronously, for the same reason stopCoordinator does: local
	// handlers wake only asynchronously through their cancelled run
	// contexts, executor-side handlers not at all. Entries of the
	// coordinator's other instances are untouched.
	stopped := make(map[string]bool, len(ids))
	for _, id := range ids {
		stopped[id] = true
	}
	w.mu.Lock()
	var victims []*gateEntry
	for k, e := range w.gate {
		if stopped[k.inst] {
			delete(w.gate, k)
			victims = append(victims, e)
		}
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, e := range victims {
		e.release <- releaseCmd{err: errors.New("sim: partition degraded")}
	}
	sort.Strings(ids)
	return ids
}

// joinInts renders ints as "0,2,3".
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// joinIDs renders instance IDs as "i0,i1", or "none".
func joinIDs(ids []string) string {
	if len(ids) == 0 {
		return "none"
	}
	return strings.Join(ids, ",")
}

// Abort force-aborts a task run (outcome optionally names the abort
// outcome). An abandoned remote dispatch leaves its executor-side
// handler gated forever (remote contexts cannot observe cancellation),
// so any leftover entry for the task is unblocked here.
func (w *World) Abort(id, path, outcome string) error {
	inst, err := w.tracked(id)
	if err != nil {
		return err
	}
	if outcome != "" {
		w.action("abort %s/%s outcome=%s", id, path, outcome)
	} else {
		w.action("abort %s/%s", id, path)
	}
	if err := inst.AbortTask(path, outcome); err != nil {
		return err
	}
	w.mu.Lock()
	hostName := ""
	if t, ok := w.insts[id]; ok {
		hostName = w.coordName(t.host)
	}
	var victims []*gateEntry
	for k, e := range w.gate {
		if k.inst == id && k.path == path && k.where != hostName {
			delete(w.gate, k)
			victims = append(victims, e)
		}
	}
	w.activity++
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, e := range victims {
		e.release <- releaseCmd{err: errors.New("sim: activation abandoned by abort")}
	}
	return w.settleAndRecord()
}

// Status returns the instance status ("running", "completed", ...).
func (w *World) Status(id string) (string, error) {
	inst, err := w.tracked(id)
	if err != nil {
		return "", err
	}
	return inst.Status().String(), nil
}

// ResultOf returns the instance's terminal result, if it has one.
func (w *World) ResultOf(id string) (engine.Result, bool, error) {
	inst, err := w.tracked(id)
	if err != nil {
		return engine.Result{}, false, err
	}
	res, ok := inst.Result()
	return res, ok, nil
}

// ExecutorAlive reports whether executor slot i is up.
func (w *World) ExecutorAlive(i int) bool {
	return i >= 0 && i < len(w.execs) && w.execs[i].alive
}

// CoordinatorAlive reports whether coordinator slot i is up.
func (w *World) CoordinatorAlive(i int) bool {
	return i >= 0 && i < len(w.coords) && w.coords[i] != nil && w.coords[i].alive
}

// Coordinators returns the number of coordinator slots.
func (w *World) Coordinators() int { return len(w.coords) }

// PartitionOwners renders the partition→owner assignment of a sharded
// world ("c0" etc., "-" for orphaned); nil for single-coordinator
// worlds.
func (w *World) PartitionOwners() []string {
	if !w.multi {
		return nil
	}
	out := make([]string, w.parts)
	for p, o := range w.owner {
		if o < 0 {
			out[p] = "-"
		} else {
			out[p] = w.coordName(o)
		}
	}
	return out
}

// NamingUp reports whether the naming service is up.
func (w *World) NamingUp() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.namingUp
}

// ArmedDelays reports how many delay timers are currently armed.
func (w *World) ArmedDelays() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.armed)
}
