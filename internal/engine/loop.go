package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/txn"
)

// markMsg is sent by an implementation when it releases a mark.
type markMsg struct {
	act     *taskCtx
	name    string
	objects registry.Objects
	reply   chan error
}

// errCancelled marks an activation interrupted by force-abort, subtree
// reset or reconfiguration.
var errCancelled = errors.New("task execution cancelled")

// loop is the instance controller: a single goroutine that owns the run
// map, serialises all state transitions (which makes input-set and
// alternative selection deterministic), and persists the transitions of
// each evaluation drain as one transaction batch on the persistent run
// objects.
func (i *Instance) loop() {
	defer close(i.loopDone)
	probe := i.eng.cfg.Probe
	wake := func() {
		if probe != nil {
			probe.Wake(i.id)
		}
	}
	var batch []msg
	for {
		// Park/Wake bracket the blocking select for the simulation
		// harness's quiescence barrier: Park fires only when the inbox
		// is empty, so "every controller parked with an empty inbox and
		// every inflight activation accounted for" means the system
		// cannot progress without an external action. inflight and
		// armedTimers are loop-owned, so reading them here is safe.
		if probe != nil && i.QueuedWork() == 0 {
			probe.Park(i.id, i.inflight, i.armedTimers)
		}
		select {
		case <-i.stopCh:
			wake()
			i.shutdown()
			return
		case <-i.inbox.nudge:
			wake()
			batch = i.inbox.take(batch)
			i.handleInbox(batch)
			continue
		case m := <-i.markCh:
			wake()
			m.reply <- i.handleMark(m)
		case f := <-i.reqCh:
			wake()
			f()
		}
		i.evaluate()
	}
}

// handleInbox processes one batch of inbox messages in posting order,
// evaluating once after each message that retires an activation and once
// after each run of consecutive delay fires. A late message, about an
// activation already retired, changes nothing and is not evaluated after.
func (i *Instance) handleInbox(batch []msg) {
	for k := range batch {
		m := &batch[k]
		if m.kind == msgTimer {
			i.handleTimer(m.path, m.gen)
			if k+1 < len(batch) && batch[k+1].kind == msgTimer {
				continue
			}
		} else if !i.handleActivation(m) {
			continue
		}
		i.evaluate()
	}
}

// shutdown stops the controller: executing implementations are told to
// stop, the transactions of live activations are aborted, and the inbox
// refuses every later post (whose poster then aborts what it carries).
// Pending delay timers are disarmed from the engine-wide wheel (which
// outlives the instance); their durable records remain, so recovery
// re-arms them at their original deadlines.
func (i *Instance) shutdown() {
	for _, r := range i.runs {
		if r.st.State != RunExecuting || r.task.Compound {
			continue
		}
		if r.delayArmed {
			r.delayArmed = false
			i.armedTimers--
			i.eng.timers.Cancel(delayID(i.id, r.st.Path))
			continue
		}
		select {
		case <-r.cancel:
		default:
			close(r.cancel)
		}
		if a := r.act; a != nil && a.tx != nil {
			_ = a.tx.Abort()
		}
	}
	// A queued result is the last thing its goroutine does with the
	// activation, so ending its transaction falls to the controller. A
	// queued deadline or cancellation leaves the transaction to the
	// implementation's own post, which is refused from here on.
	for _, m := range i.inbox.close() {
		if m.kind == msgResult && m.act.tx != nil {
			_ = m.act.tx.Abort()
		}
	}
}

// interrupt cancels the executing implementation of a plain run: the
// implementation sees its taskCtx.Done close, and the live activation
// gets a cancellation message, so the controller retires it whether or
// not the implementation heeds the signal.
func (i *Instance) interrupt(r *run) {
	select {
	case <-r.cancel:
	default:
		close(r.cancel)
	}
	if r.act != nil {
		i.inbox.post(msg{kind: msgCancel, act: r.act})
	}
}

// startRoot starts the root task with externally supplied inputs.
func (i *Instance) startRoot(set string, inputs registry.Objects) error {
	r := i.runs[i.root.Path()]
	if r.st.State != RunWaiting {
		return fmt.Errorf("start %s: root is %s", i.id, r.st.State)
	}
	i.meta.Started, i.meta.StartSet, i.meta.StartInputs = true, set, inputs.Clone()
	if err := i.saveMeta(i.meta); err != nil {
		return err
	}
	i.setStatus(StatusRunning)
	i.startRun(r, set, inputs.Clone())
	i.evaluate()
	return nil
}

// resumeExecuting re-activates implementations that were executing when
// the instance crashed, then runs an evaluation pass. Called once after
// Recover, off the loop goroutine.
func (i *Instance) resumeExecuting() {
	done := make(chan struct{})
	select {
	case i.reqCh <- func() {
		if i.meta.Started {
			i.setStatus(StatusRunning)
		}
		root := i.runs[i.root.Path()]
		if i.meta.Started && root.st.State == RunWaiting && root.st.ChosenSet == "" {
			// Crashed between Start persisting meta and the root run
			// starting: redo the start.
			i.startRun(root, i.meta.StartSet, i.meta.StartInputs.Clone())
		}
		for _, path := range i.plan.Paths {
			r, ok := i.runs[path]
			if !ok {
				continue
			}
			if r.st.State == RunExecuting && !r.task.Compound {
				if _, isDelay, _ := delayOf(r.task); !isDelay {
					i.spawnActivation(r)
				}
				// Delay runs were re-armed from their durable records by
				// Recover; re-activating them here would restart the
				// delay from zero.
			}
			if r.st.State.Terminal() && r.task == i.root {
				i.finishInstance(r)
			}
		}
		close(done)
	}:
		<-done
	case <-i.loopDone:
	}
}

// evaluate propagates the state transitions recorded since the last
// call: waiting tasks whose dependencies are met start, executing
// compound tasks whose output mappings are met produce outputs. The
// dirty worklist holds exactly the runs whose dependencies may have
// gained availability (see depindex.go); draining it in schema-DFS
// declaration order keeps input-set and alternative selection
// deterministic and identical to a full rescan of every run.
func (i *Instance) evaluate() {
	if n := len(i.dirty); n > 0 {
		i.eng.met.drainRuns.Observe(float64(n))
	}
	if hook := i.eng.evalHook; hook != nil {
		hook(i)
	} else {
		i.drainDirty()
	}
	i.checkQuiescence()
	// All run-state transitions of this pass become durable together. A
	// failed flush already surfaced as per-task failure events; the
	// in-memory state stays authoritative for the live controller and
	// recovery replays from the last durable prefix.
	_ = i.flushRuns()
}

// active reports whether a run's enclosing compounds are all executing
// (constituents of a terminated or reset compound are dormant).
func (i *Instance) active(r *run) bool {
	for t := r.task.Parent; t != nil; t = t.Parent {
		pr, ok := i.runs[t.Path()]
		if !ok || pr.st.State != RunExecuting {
			return false
		}
	}
	return true
}

// trySatisfy checks a waiting task's input sets in declaration order and
// starts the task on the first satisfiable one.
func (i *Instance) trySatisfy(r *run) bool {
	// The root starts only through the client's Start (recorded in meta
	// and redone by recovery) — its inputs come from the caller, not
	// from dependency satisfaction. Roots bind no input sources, so
	// without this guard a recovered instance whose Start had not been
	// applied yet would fall into the no-input-sets branch below and
	// start with no chosen set, leaving constituents that read
	// "if input <set>" unsatisfiable forever while the retried Start is
	// rejected as a duplicate.
	if r.task == i.root && !i.meta.Started {
		return false
	}
	// A task binding no input sets (its class demands no inputs) starts
	// as soon as its scope is active.
	if len(r.task.InputSets) == 0 {
		i.startRun(r, "", nil)
		return true
	}
	for _, set := range r.task.InputSets {
		vals, ok := i.satisfied(r, set.Objects, set.Notifications)
		if ok {
			i.startRun(r, set.Name, vals)
			return true
		}
	}
	return false
}

// satisfied resolves the object and notification dependencies of one
// input set or compound output mapping, honouring first-available
// alternative order, and returns the objects if every one resolves. Most
// checks find a join not yet ready, so the values map is built only
// once all of them have resolved.
func (i *Instance) satisfied(r *run, objs []*core.ObjectDep, nots []*core.NotificationDep) (registry.Objects, bool) {
	for _, nd := range nots {
		if !i.resolveNotification(r, nd) {
			return nil, false
		}
	}
	for _, od := range objs {
		if _, ok := i.resolveObject(r, od); !ok {
			return nil, false
		}
	}
	vals := make(registry.Objects, len(objs))
	for _, od := range objs {
		vals[od.Name], _ = i.resolveObject(r, od)
	}
	return vals, true
}

// resolveObject finds the first available alternative source of an
// object dependency.
func (i *Instance) resolveObject(r *run, od *core.ObjectDep) (registry.Value, bool) {
	for _, s := range od.Sources {
		if v, ok := i.sourceValue(r, s); ok {
			return v, true
		}
	}
	return registry.Value{}, false
}

// resolveNotification reports whether any alternative source has fired.
func (i *Instance) resolveNotification(r *run, nd *core.NotificationDep) bool {
	for _, s := range nd.Sources {
		if _, ok := i.sourceValue(r, s); ok {
			return true
		}
	}
	return false
}

// sourceValue resolves one source against current run states. For
// notification sources (s.Object == "") the value is ignored.
func (i *Instance) sourceValue(r *run, s *core.Source) (registry.Value, bool) {
	pr, ok := i.runs[s.Task.Path()]
	if !ok {
		return registry.Value{}, false
	}
	switch s.Cond {
	case core.CondInput:
		// Available once the producer consumed (started with) that set.
		if pr.st.ChosenSet != s.CondName || pr.st.State == RunWaiting {
			return registry.Value{}, false
		}
		if s.Object == "" {
			return registry.Value{}, true
		}
		v, ok := pr.st.Inputs[s.Object]
		return v, ok
	case core.CondOutput:
		out := s.Task.Class.Output(s.CondName)
		if out != nil && out.Kind == core.RepeatOutcome {
			// Repeat feedback: visible only to the producing task itself
			// (sema guarantees s.Task == r.task here).
			if pr.st.LastRepeat == nil || pr.st.LastRepeat.Output != s.CondName {
				return registry.Value{}, false
			}
			if s.Object == "" {
				return registry.Value{}, true
			}
			v, ok := pr.st.LastRepeat.Objects[s.Object]
			return v, ok
		}
		rec := pr.findOutput(s.CondName)
		if rec == nil {
			return registry.Value{}, false
		}
		if s.Object == "" {
			return registry.Value{}, true
		}
		v, ok := rec.Objects[s.Object]
		return v, ok
	default: // CondNone
		if s.Object == "" {
			// Bare notification: fires on any terminal state.
			if pr.st.State.Terminal() {
				return registry.Value{}, true
			}
			return registry.Value{}, false
		}
		// Any produced output (including marks) carrying the object.
		for idx := range pr.st.Outputs {
			rec := &pr.st.Outputs[idx]
			if v, ok := rec.Objects[s.Object]; ok {
				return v, true
			}
		}
		return registry.Value{}, false
	}
}

// startRun transitions a waiting run to executing: plain tasks get an
// activation, compound tasks activate their constituents.
func (i *Instance) startRun(r *run, set string, inputs registry.Objects) {
	r.st.State = RunExecuting
	r.st.ChosenSet = set
	r.st.Inputs = inputs
	if r.st.MarksEmitted == nil {
		r.st.MarksEmitted = make(map[string]bool)
	}
	i.genSeq++
	r.gen = i.genSeq
	r.cancel = make(chan struct{})
	i.persistRun(r)
	i.eng.met.activations.Inc()
	i.emit(Event{Task: r.st.Path, Kind: EventTaskStarted, InputSet: set, Attempt: r.st.Attempt, Iteration: r.st.Iteration})
	i.noteStarted(r.st.Path)
	if r.task.Compound {
		// The compound's own output mappings may already be satisfiable
		// (e.g. sourced from its freshly consumed inputs).
		i.markDirty(r.st.Path)
		i.activateConstituents(r.task)
		return
	}
	if d, isDelay, err := delayOf(r.task); isDelay {
		// First-class delay: no activation, just an absolute deadline on
		// the durable timing wheel (see timers.go).
		if err != nil {
			i.failRun(r, err)
			return
		}
		i.armDelay(r, i.eng.clock.Now().Add(d))
		return
	}
	i.spawnActivation(r)
}

// activateConstituents creates waiting runs for a compound's members.
func (i *Instance) activateConstituents(t *core.Task) {
	for _, c := range t.Constituents {
		path := c.Path()
		// Every constituent just became active (its scope is executing) and
		// must be evaluated, whether its run is new or reloaded by recovery.
		i.markDirty(path)
		if _, exists := i.runs[path]; exists {
			continue
		}
		r := i.newRun(c, runState{Path: path, State: RunWaiting, MarksEmitted: make(map[string]bool)})
		i.runs[path] = r
		i.persistRun(r)
		i.emit(Event{Task: path, Kind: EventTaskWaiting})
	}
}

// tryCompoundOutputs checks an executing compound's output mappings in
// declaration order; the first satisfied terminal mapping ends the
// compound, satisfied mark mappings are released once each.
func (i *Instance) tryCompoundOutputs(r *run) bool {
	progress := false
	for _, ob := range r.task.Outputs {
		if ob.Output.Kind == core.Mark && r.st.MarksEmitted[ob.Output.Name] {
			continue
		}
		vals, ok := i.satisfied(r, ob.Objects, ob.Notifications)
		if !ok {
			continue
		}
		rec := OutputRec{
			Output: ob.Output.Name, Kind: ob.Output.Kind,
			Objects: vals, Iteration: r.st.Iteration, At: i.eng.clock.Now(),
		}
		switch ob.Output.Kind {
		case core.Mark:
			r.st.MarksEmitted[ob.Output.Name] = true
			r.st.Outputs = append(r.st.Outputs, rec)
			i.persistRun(r)
			i.emit(Event{Task: r.st.Path, Kind: EventTaskMarked, Output: rec.Output, Objects: vals, Iteration: r.st.Iteration})
			i.noteOutput(r.st.Path)
			progress = true
			continue
		case core.RepeatOutcome:
			i.repeatRun(r, rec)
			return true
		default:
			i.completeRun(r, rec)
			return true
		}
	}
	return progress
}

// repeatRun re-enters a task into Wait after a repeat outcome: counters
// advance, current-iteration outputs are discarded, and for compounds the
// constituent subtree is reset (cancelling any stragglers).
func (i *Instance) repeatRun(r *run, rec OutputRec) {
	r.st.LastRepeat = &rec
	r.st.Iteration++
	r.st.Attempt = 0
	r.st.State = RunWaiting
	r.st.ChosenSet = ""
	r.st.Inputs = nil
	r.st.Outputs = nil
	r.st.MarksEmitted = make(map[string]bool)
	if r.task.Compound {
		i.resetSubtree(r.task)
	}
	i.persistRun(r)
	i.emit(Event{Task: r.st.Path, Kind: EventTaskRepeated, Output: rec.Output, Objects: rec.Objects, Iteration: r.st.Iteration})
	// The run is waiting again and its repeat feedback may satisfy its own
	// input sets; consumers see the repeat record and discarded outputs.
	i.markDirty(r.st.Path)
	i.noteOutput(r.st.Path)
	if r.st.Iteration >= i.eng.cfg.MaxRepeats {
		i.failRun(r, fmt.Errorf("repeat limit %d reached", i.eng.cfg.MaxRepeats))
	}
}

// resetSubtree removes the runs of a compound's constituents (they are
// recreated fresh when the compound restarts), interrupting any that were
// executing.
func (i *Instance) resetSubtree(t *core.Task) {
	for _, c := range t.Constituents {
		path := c.Path()
		r, ok := i.runs[path]
		if !ok {
			continue
		}
		if r.st.State == RunExecuting && !c.Compound {
			i.cancelDelay(r)
			i.interrupt(r)
		}
		if c.Compound {
			i.resetSubtree(c)
		}
		delete(i.runs, path)
		i.deleteRunState(path)
	}
}

// completeRun finalises a run in a terminal outcome.
func (i *Instance) completeRun(r *run, rec OutputRec) {
	r.st.Outputs = append(r.st.Outputs, rec)
	kind := EventTaskCompleted
	if rec.Kind == core.AbortOutcome {
		r.st.State = RunAborted
		kind = EventTaskAborted
	} else {
		r.st.State = RunCompleted
	}
	i.persistRun(r)
	i.eng.met.completions.Inc()
	i.emit(Event{Task: r.st.Path, Kind: kind, Output: rec.Output, Objects: rec.Objects, Iteration: r.st.Iteration, Attempt: r.st.Attempt})
	i.noteOutput(r.st.Path)
	if r.task == i.root {
		i.finishInstance(r)
	}
}

// failRun marks a run failed (contract violation or retries exhausted
// with no abort outcome).
func (i *Instance) failRun(r *run, cause error) {
	r.st.State = RunFailed
	i.persistRun(r)
	i.emit(Event{Task: r.st.Path, Kind: EventTaskFailed, Err: cause.Error(), Attempt: r.st.Attempt, Iteration: r.st.Iteration})
	i.noteOutput(r.st.Path) // bare notifications fire on any terminal state
	if r.task == i.root {
		i.finishInstance(r)
	}
}

// finishInstance records the instance result from the root's terminal
// record.
func (i *Instance) finishInstance(r *run) {
	// Waiters observe the terminal status as soon as it is set: flush the
	// buffered transitions (including the root's terminal state) so an
	// acknowledged completion survives a crash.
	if err := i.flushRuns(); err != nil {
		// The terminal state did not reach the disk (wedged or fenced
		// store): completing anyway would acknowledge a result a
		// takeover peer recovers without. Stay un-completed — the
		// degradation path hands the partition to a healthy owner,
		// whose recovery resumes from the durable prefix and finishes
		// the instance there.
		return
	}
	var res Result
	if rec := r.terminalRec(); rec != nil {
		res = Result{Output: rec.Output, Kind: rec.Kind, Objects: rec.Objects, State: r.st.State}
	} else {
		res = Result{State: r.st.State}
	}
	i.mu.Lock()
	i.result = &res
	i.mu.Unlock()
	switch r.st.State {
	case RunCompleted:
		i.setStatus(StatusCompleted)
	case RunAborted:
		i.setStatus(StatusAborted)
	default:
		i.setStatus(StatusFailed)
	}
	// The completion span closes the trace on whichever coordinator saw
	// the root terminate; in-memory only — the instance's durable story
	// is over by here.
	now := i.eng.clock.Now()
	i.eng.tracer.Record(obs.Span{
		TraceID: i.meta.TraceID, SpanID: obs.NewID(), Parent: i.meta.TraceID,
		Name: "complete", Instance: i.id, Start: now, End: now,
		Attrs: map[string]string{"status": r.st.State.String(), "output": res.Output},
	})
	i.emit(Event{Kind: EventInstanceCompleted, Output: res.Output})
}

// checkQuiescence detects stalls: root not terminal, nothing executing,
// nothing satisfiable. The status is surfaced as the paper's failure
// exception; a reconfiguration or forced abort can revive the instance.
func (i *Instance) checkQuiescence() {
	if i.Status() != StatusRunning {
		return
	}
	root := i.runs[i.root.Path()]
	if root == nil || root.st.State.Terminal() || i.inflight > 0 || i.armedTimers > 0 {
		return
	}
	i.setStatus(StatusStalled)
	i.emit(Event{Kind: EventInstanceStalled})
}

// spawnActivation starts one attempt of a plain task run's
// implementation. The implementation is resolved here, on the loop, and
// runs on a goroutine of its own that posts its result to the inbox; the
// controller retires the activation on its first message (see retire).
// The activation deadline, when one applies, is an entry on the engine's
// shared timing wheel that posts a deadline message; it is volatile by
// design — a recovered activation is a fresh attempt with a fresh
// deadline.
func (i *Instance) spawnActivation(r *run) {
	deadline := i.eng.cfg.DefaultDeadline
	if d, ok := r.task.Implementation["deadline"]; ok {
		if parsed, err := time.ParseDuration(d); err == nil {
			deadline = parsed
		}
	}
	// One span per activation attempt: retries open a fresh span, so the
	// trace shows each attempt with its own timing and error.
	r.actSpan = obs.Span{
		TraceID: i.meta.TraceID, SpanID: obs.NewID(), Parent: i.meta.TraceID,
		Name: "activate", Instance: i.id, Task: r.st.Path,
		Start: i.eng.clock.Now(),
		Attrs: map[string]string{
			"attempt": fmt.Sprint(r.st.Attempt), "set": r.st.ChosenSet,
		},
	}
	c := &taskCtx{
		inst: i, path: r.st.Path, gen: r.gen, code: r.task.Code(), atomic: r.task.Atomic(),
		location: r.task.Implementation["location"],
		attempt:  r.st.Attempt, iteration: r.st.Iteration, set: r.st.ChosenSet,
		inputs: r.st.Inputs.Clone(), deadline: deadline, cancel: r.cancel,
		traceID: r.actSpan.TraceID, spanID: r.actSpan.SpanID,
	}
	r.act = c
	i.inflight++
	var f registry.Func
	if c.location != "" && i.eng.cfg.RemoteInvoker != nil {
		// The "location" implementation property routes the activation to
		// a remote task executor.
		if i.remoteGate != nil {
			c.abandoned = make(chan struct{})
		}
		f = c.invokeRemote
	} else {
		local, err := i.eng.impls.Lookup(c.code)
		if err != nil {
			i.inbox.post(msg{kind: msgResult, act: c, err: err})
			return
		}
		f = local
	}
	if c.atomic {
		// Atomic tasks run inside a transaction the controller commits
		// only for a non-abort termination, so an abort outcome truly has
		// no effects.
		c.tx = i.eng.preg.Manager().Begin()
	}
	if deadline > 0 {
		// The id carries gen AND attempt: retries of one generation must
		// not let a retired attempt's disarm cancel its successor's
		// deadline.
		c.deadlineID = fmt.Sprintf("deadline|%s|%s|%d|%d", i.id, c.path, c.gen, c.attempt)
		i.eng.timers.Arm(c.deadlineID, i.eng.clock.Now().Add(deadline), func() {
			i.inbox.post(msg{kind: msgDeadline, act: c})
		})
	}
	//wflint:allow goroutinestop bounded by f's return; cancellation reaches f through taskCtx.Done, and a post never blocks
	go c.activate(f)
}

// activate runs the implementation on the activation's own goroutine
// and posts its result. A refused post means the controller has
// stopped: nobody will decide the transaction, so it is aborted here.
func (c *taskCtx) activate(f registry.Func) {
	res, err := c.call(f)
	if !c.inst.inbox.post(msg{kind: msgResult, act: c, res: res, err: err}) && c.tx != nil {
		_ = c.tx.Abort()
	}
}

// call runs f, turning a panic into an error result.
func (c *taskCtx) call(f registry.Func) (res registry.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("implementation panic: %v", p)
		}
	}()
	return f(c)
}

// invokeRemote executes the activation at its location through the
// remote invoker. Marks are not available remotely (one request/reply
// per activation).
func (c *taskCtx) invokeRemote(registry.Context) (registry.Result, error) {
	i := c.inst
	if gate := i.remoteGate; gate != nil {
		// Backpressure: wide fan-outs queue here instead of flooding the
		// executor pool with unbounded concurrent dispatches. The waiting
		// gauge must come back down on EVERY exit from the wait —
		// including abandonment, where the controller retired the
		// activation (deadline) while it was still queued and nobody will
		// ever read its result, so it gives up its wait instead of later
		// burning a slot on a zombie dispatch.
		met := &i.eng.met
		met.remoteWaiting.Add(1)
		select {
		case gate <- struct{}{}:
			met.remoteWaiting.Add(-1)
			met.remoteInflight.Add(1)
			defer func() {
				<-gate
				met.remoteInflight.Add(-1)
			}()
		case <-c.cancel:
			met.remoteWaiting.Add(-1)
			return registry.Result{}, errCancelled
		case <-c.abandoned:
			met.remoteWaiting.Add(-1)
			return registry.Result{}, errCancelled
		case <-i.stopCh:
			met.remoteWaiting.Add(-1)
			return registry.Result{}, ErrStopped
		}
	}
	return i.eng.cfg.RemoteInvoker(RemoteRequest{
		Location: c.location, Code: c.code,
		Instance: i.id, TaskPath: c.path, InputSet: c.set,
		Attempt: c.attempt, Iteration: c.iteration,
		Inputs:  c.inputs,
		TraceID: c.traceID, SpanID: c.spanID,
	})
}

// retire ends an activation on its first message, exactly once:
// inflight drops, the deadline is disarmed, a remote activation still
// queued on the gate is abandoned, and the run lets go of it. It returns
// the run the activation is still live for, or nil when the run was
// reset or reconfigured away meanwhile.
func (i *Instance) retire(a *taskCtx) *run {
	a.retired = true
	i.inflight--
	if a.deadlineID != "" {
		i.eng.timers.Cancel(a.deadlineID)
	}
	if a.abandoned != nil {
		close(a.abandoned)
	}
	r, ok := i.runs[a.path]
	if !ok || r.act != a {
		return nil
	}
	r.act = nil
	return r
}

// handleActivation processes a result, deadline or cancellation message
// on the loop goroutine and reports whether it retired its activation.
// A later message of a retired activation is dropped: its transaction
// was already aborted at retirement, and nothing reads its result.
func (i *Instance) handleActivation(m *msg) bool {
	a := m.act
	if a.retired {
		return false
	}
	r := i.retire(a)
	res, err := m.res, m.err
	switch m.kind {
	case msgDeadline:
		err = fmt.Errorf("deadline %v exceeded", a.deadline)
	case msgCancel:
		err = errCancelled
	}
	if a.tx != nil {
		// The commit decision is the controller's: effects commit only
		// for a live run's non-abort result that no abort request
		// overtook. A deadline or cancellation that came first retired
		// the activation, so it can never race a commit.
		if r != nil && err == nil && r.pendingAbort == "" && !isAbortOutput(r.task, res.Output) {
			if cerr := a.tx.Commit(); cerr != nil {
				res, err = registry.Result{}, fmt.Errorf("commit task transaction: %w", cerr)
			}
		} else {
			_ = a.tx.Abort()
		}
	}
	if r != nil {
		i.handleCompletion(r, res, err)
	}
	return true
}

// isAbortOutput reports whether the named output of t is an abort
// outcome.
func isAbortOutput(t *core.Task, output string) bool {
	o := t.Class.Output(output)
	return o != nil && o.Kind == core.AbortOutcome
}

// handleCompletion applies the outcome of a retired activation to its
// live run.
func (i *Instance) handleCompletion(r *run, res registry.Result, err error) {
	var errText string
	if err != nil {
		errText = err.Error()
	}
	i.finishActSpan(r, errText)
	if r.pendingAbort != "" || errors.Is(err, errCancelled) {
		i.forceAbortNow(r)
		return
	}
	if err != nil {
		i.systemFailure(r, err)
		return
	}
	out := r.task.Class.Output(res.Output)
	if out == nil {
		i.failRun(r, fmt.Errorf("implementation produced unknown output %q", res.Output))
		return
	}
	objects, err := i.conformObjects(out, res.Objects)
	if err != nil {
		i.failRun(r, err)
		return
	}
	rec := OutputRec{Output: out.Name, Kind: out.Kind, Objects: objects, Iteration: r.st.Iteration, At: i.eng.clock.Now()}
	switch out.Kind {
	case core.Mark:
		i.failRun(r, fmt.Errorf("mark output %q returned as final result", out.Name))
	case core.RepeatOutcome:
		i.repeatRun(r, rec)
	case core.AbortOutcome:
		if len(r.st.MarksEmitted) > 0 {
			// Section 4.2: a task which produced a mark cannot abort.
			i.failRun(r, fmt.Errorf("abort outcome %q after mark output", out.Name))
			return
		}
		i.completeRun(r, rec)
	default:
		i.completeRun(r, rec)
	}
}

// conformObjects validates produced objects against the output's declared
// fields and stamps their classes.
func (i *Instance) conformObjects(out *core.Output, produced registry.Objects) (registry.Objects, error) {
	objects := make(registry.Objects, len(out.Objects))
	for _, f := range out.Objects {
		v, ok := produced[f.Name]
		if !ok {
			return nil, fmt.Errorf("output %q missing declared object %q (class %s)", out.Name, f.Name, f.Class)
		}
		if v.Class == "" {
			v.Class = f.Class
		} else if !i.schema.AssignableTo(v.Class, f.Class) {
			return nil, fmt.Errorf("output %q object %q has class %s, want %s", out.Name, f.Name, v.Class, f.Class)
		}
		objects[f.Name] = v
	}
	return objects, nil
}

// systemFailure applies the automatic retry policy to a failed
// activation; exhausted retries map to the first declared abort outcome
// (Fig. 3's system-restartable aborts), else the run fails.
func (i *Instance) systemFailure(r *run, cause error) {
	if r.st.Attempt < i.eng.cfg.MaxRetries {
		r.st.Attempt++
		i.persistRun(r)
		i.eng.met.retries.Inc()
		i.emit(Event{Task: r.st.Path, Kind: EventTaskRetried, Err: cause.Error(), Attempt: r.st.Attempt, Iteration: r.st.Iteration})
		i.spawnActivation(r)
		return
	}
	if len(r.st.MarksEmitted) > 0 {
		i.failRun(r, fmt.Errorf("retries exhausted after mark output: %w", cause))
		return
	}
	aborts := r.task.Class.Outcomes(core.AbortOutcome)
	if len(aborts) == 0 {
		i.failRun(r, fmt.Errorf("retries exhausted: %w", cause))
		return
	}
	rec := OutputRec{Output: aborts[0].Name, Kind: core.AbortOutcome, Iteration: r.st.Iteration, At: i.eng.clock.Now()}
	i.completeRun(r, rec)
}

// forceAbortNow terminates a run in response to AbortTask.
func (i *Instance) forceAbortNow(r *run) {
	outcome := r.pendingAbort
	r.pendingAbort = ""
	if outcome == "forced" {
		outcome = ""
	}
	if outcome == "" {
		if aborts := r.task.Class.Outcomes(core.AbortOutcome); len(aborts) > 0 {
			outcome = aborts[0].Name
		}
	}
	if outcome != "" {
		rec := OutputRec{Output: outcome, Kind: core.AbortOutcome, Iteration: r.st.Iteration, At: i.eng.clock.Now()}
		i.completeRun(r, rec)
		return
	}
	// No declared abort outcome: terminal abort state without an output.
	r.st.State = RunAborted
	i.persistRun(r)
	i.emit(Event{Task: r.st.Path, Kind: EventTaskAborted, Iteration: r.st.Iteration})
	i.noteOutput(r.st.Path) // bare notifications fire on any terminal state
	if r.task == i.root {
		i.finishInstance(r)
	}
}

// handleMark records a mark released by a running implementation. Only
// the run's live activation may mark: a retired one (past its deadline,
// cancelled) is no longer the run's execution.
func (i *Instance) handleMark(msg markMsg) error {
	r, ok := i.runs[msg.act.path]
	if !ok || r.act != msg.act {
		return fmt.Errorf("mark %s: task is not executing", msg.name)
	}
	out := r.task.Class.Output(msg.name)
	if out == nil || out.Kind != core.Mark {
		return fmt.Errorf("mark %s: taskclass %s declares no such mark", msg.name, r.task.Class.Name)
	}
	if r.st.MarksEmitted[msg.name] {
		return fmt.Errorf("mark %s: already produced (marks may be produced once)", msg.name)
	}
	objects, err := i.conformObjects(out, msg.objects)
	if err != nil {
		return err
	}
	rec := OutputRec{Output: out.Name, Kind: core.Mark, Objects: objects, Iteration: r.st.Iteration, At: i.eng.clock.Now()}
	r.st.MarksEmitted[msg.name] = true
	r.st.Outputs = append(r.st.Outputs, rec)
	i.persistRun(r)
	// The reply acknowledges the mark to the implementation, which is
	// then barred from aborting (Section 4.2): make it durable first. A
	// mark that failed to persist must NOT be acknowledged — the
	// implementation would consider itself bar-from-abort on the
	// strength of a record recovery will never see — so roll it back in
	// memory and report the failure instead.
	if err := i.flushRuns(); err != nil {
		delete(r.st.MarksEmitted, msg.name)
		r.st.Outputs = r.st.Outputs[:len(r.st.Outputs)-1]
		return fmt.Errorf("mark %s: persist: %w", msg.name, err)
	}
	i.emit(Event{Task: r.st.Path, Kind: EventTaskMarked, Output: out.Name, Objects: objects, Iteration: r.st.Iteration})
	i.noteOutput(r.st.Path)
	return nil
}

// abortTask implements AbortTask on the loop goroutine.
func (i *Instance) abortTask(path, outcome string) error {
	r, ok := i.runs[path]
	if !ok {
		return fmt.Errorf("abort task %s: no run", path)
	}
	if outcome != "" {
		o := r.task.Class.Output(outcome)
		if o == nil || o.Kind != core.AbortOutcome {
			return fmt.Errorf("abort task %s: %q is not an abort outcome of taskclass %s", path, outcome, r.task.Class.Name)
		}
	}
	switch r.st.State {
	case RunWaiting:
		if outcome == "" {
			r.pendingAbort = "forced"
		} else {
			r.pendingAbort = outcome
		}
		i.forceAbortNow(r)
		return nil
	case RunExecuting:
		if r.task.Compound {
			return fmt.Errorf("abort task %s: aborting executing compound tasks is not supported; abort a constituent", path)
		}
		if len(r.st.MarksEmitted) > 0 {
			return fmt.Errorf("abort task %s: task has produced a mark and can no longer abort", path)
		}
		if outcome == "" {
			r.pendingAbort = "forced"
		} else {
			r.pendingAbort = outcome
		}
		if r.delayArmed {
			// Delay runs have no activation to interrupt: disarm the
			// wheel and terminate immediately.
			i.cancelDelay(r)
			i.forceAbortNow(r)
			return nil
		}
		i.interrupt(r)
		return nil
	default:
		return fmt.Errorf("abort task %s: task is %s", path, r.st.State)
	}
}

// persistRun records a run-state transition for persistence: the write
// is buffered and flushed together with every other transition of the
// current evaluation drain as one transaction batch (see flushRuns).
// Persistence failures are surfaced as events (the in-memory state
// remains authoritative for the live controller; recovery replays from
// the last successfully persisted state).
func (i *Instance) persistRun(r *run) {
	if i.eng.cfg.Ephemeral {
		return
	}
	i.bufferRun(r.st.Path, r)
}

// deleteRunState removes a reset constituent's persisted state (same
// batching discipline as persistRun).
func (i *Instance) deleteRunState(path string) {
	if i.eng.cfg.Ephemeral {
		return
	}
	i.bufferRun(path, nil)
}

// bufferRun stages one run-state write (r == nil: delete) for the next
// flush. Later stagings of the same path supersede earlier ones — only
// the state at flush time is durable, exactly the state recovery should
// resume from. Owned by the loop goroutine.
func (i *Instance) bufferRun(path string, r *run) {
	if _, ok := i.pendingRuns[path]; !ok {
		i.pendingOrder = append(i.pendingOrder, path)
	}
	i.pendingRuns[path] = r
}

// flushRuns commits every buffered run-state transition as one
// all-or-nothing store batch: one record and one group-committed fsync
// per evaluation drain instead of per transition. Crash-wise this moves the recovery point from "after any transition"
// to "after any drain": an intermediate state a crash loses is
// re-derived by recovery from the same inputs, which the crash-recovery
// property tests pin. Called on the loop goroutine at the end of every
// evaluation pass and before externally visible acknowledgements (mark
// replies, instance completion).
//
// A commit failure (wedged store, lapsed lease fence) is surfaced twice:
// as per-task failure events, and as the returned error so
// acknowledgement points refuse to ack state that never became durable.
func (i *Instance) flushRuns() error {
	if len(i.pendingOrder) == 0 && len(i.pendingTimerOrder) == 0 {
		return nil
	}
	start := i.eng.clock.Now()
	b := i.eng.preg.NewBatch()
	paths := i.pendingOrder
	timerPaths := i.pendingTimerOrder
	for _, path := range paths {
		r := i.pendingRuns[path]
		if r == nil {
			b.Delete(runKey(i.id, path))
			continue
		}
		if err := b.Set(runKey(i.id, path), r.st); err != nil {
			i.emit(Event{Task: path, Kind: EventTaskFailed, Err: fmt.Sprintf("persist run: %v", err)})
		}
	}
	// Timer records ride the same batch, so a fire's record deletion is
	// durable exactly when the terminal run state it acknowledges is:
	// the store applies the batch whole or not at all.
	for _, path := range i.pendingTimerOrder {
		rec := i.pendingTimers[path]
		if rec == nil {
			b.Delete(timerRecKey(i.id, path))
			continue
		}
		if err := b.Set(timerRecKey(i.id, path), *rec); err != nil {
			i.emit(Event{Task: path, Kind: EventTaskFailed, Err: fmt.Sprintf("persist timer: %v", err)})
		}
	}
	i.pendingOrder = nil
	clear(i.pendingRuns)
	i.pendingTimerOrder = nil
	clear(i.pendingTimers)
	if err := b.Commit(); err != nil {
		for _, path := range paths {
			i.emit(Event{Task: path, Kind: EventTaskFailed, Err: fmt.Sprintf("persist run: %v", err)})
		}
		// A batch can carry only timer records (recovery re-arms stage
		// no run states), so the failure must surface on those too.
		for _, path := range timerPaths {
			i.emit(Event{Task: path, Kind: EventTaskFailed, Err: fmt.Sprintf("persist timer: %v", err)})
		}
		return err
	}
	i.eng.met.flushOps.Observe(float64(len(paths) + len(timerPaths)))
	i.eng.met.flushSeconds.ObserveSince(i.eng.clock, start)
	return nil
}

// taskCtx is one activation: an attempt of a plain task run's
// implementation, started by spawnActivation, and the registry.Context
// that implementation sees. Everything but retired is fixed when it is
// spawned.
type taskCtx struct {
	inst      *Instance
	path      string
	gen       int
	code      string
	location  string
	atomic    bool
	attempt   int
	iteration int
	set       string
	inputs    registry.Objects
	deadline  time.Duration
	// deadlineID names the deadline's wheel entry, which retirement
	// disarms; empty without a deadline.
	deadlineID string
	// cancel is the run's interrupt channel (force abort, reset,
	// reconfiguration, shutdown), the implementation's Done.
	cancel chan struct{}
	// traceID/spanID identify the attempt's activation span, forwarded
	// to remote executors so their spans parent into the trace.
	traceID string
	spanID  string
	// tx is the atomic task's transaction, ended by the controller.
	tx *txn.Txn
	// abandoned is closed at retirement, so a remote activation still
	// queued on the remote gate gives up its wait; nil without a gate.
	abandoned chan struct{}
	// retired is set by the controller on the first message about this
	// activation; loop-owned.
	retired bool
}

var _ registry.Context = (*taskCtx)(nil)

func (c *taskCtx) Instance() string         { return c.inst.id }
func (c *taskCtx) TaskPath() string         { return c.path }
func (c *taskCtx) InputSet() string         { return c.set }
func (c *taskCtx) Inputs() registry.Objects { return c.inputs }
func (c *taskCtx) Attempt() int             { return c.attempt }
func (c *taskCtx) Iteration() int           { return c.iteration }
func (c *taskCtx) Txn() *txn.Txn            { return c.tx }
func (c *taskCtx) Done() <-chan struct{}    { return c.cancel }

func (c *taskCtx) Mark(name string, objects registry.Objects) error {
	if c.atomic {
		return fmt.Errorf("mark %s: atomic tasks cannot produce marks", name)
	}
	reply := make(chan error, 1)
	select {
	case c.inst.markCh <- markMsg{act: c, name: name, objects: objects, reply: reply}:
	case <-c.inst.stopCh:
		return ErrStopped
	}
	select {
	case err := <-reply:
		return err
	case <-c.inst.stopCh:
		return ErrStopped
	}
}
