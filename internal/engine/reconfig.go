package engine

import (
	"encoding/gob"
	"errors"
	"fmt"

	"strings"

	"repro/internal/core"
	"repro/internal/script/sema"
)

// Dynamic reconfiguration (Sections 2 and 3): the structure of a running
// application can be changed by adding/deleting tasks, notifications and
// dependencies. Operations are expressed in the scripting language itself
// (task fragments and source specifications), persisted as records, and
// applied atomically: the batch is applied to a clone of the schema which
// is swapped in only if every operation validates — changes are "carried
// out atomically with respect to normal processing" because the swap
// happens on the instance's controller goroutine between evaluation
// steps, under the same transaction that persists the record.

// Op is one reconfiguration operation. Implementations are gob-encodable
// so records replay during recovery.
type Op interface {
	// Apply validates and performs the operation against the schema.
	Apply(schema *core.Schema, root *core.Task) error
	// Describe renders the operation for event traces and the admin tool.
	Describe() string
}

// AddTaskOp inserts a new task, written as a script fragment, into the
// compound task at ScopePath (empty adds a top-level task).
type AddTaskOp struct {
	ScopePath string
	Fragment  string
}

// Apply implements Op.
func (op *AddTaskOp) Apply(schema *core.Schema, _ *core.Task) error {
	var scope *core.Task
	if op.ScopePath != "" {
		scope = schema.Lookup(op.ScopePath)
		if scope == nil {
			return fmt.Errorf("add task: no scope %q", op.ScopePath)
		}
		if !scope.Compound {
			return fmt.Errorf("add task: scope %q is not a compound task", op.ScopePath)
		}
	}
	t, err := sema.CompileTaskFragment(schema, scope, []byte(op.Fragment))
	if err != nil {
		return fmt.Errorf("add task in %q: %w", op.ScopePath, err)
	}
	return schema.AddTask(scope, t)
}

// Describe implements Op.
func (op *AddTaskOp) Describe() string {
	return fmt.Sprintf("add task in %q", op.ScopePath)
}

// RemoveTaskOp removes the named constituent of the compound at
// ScopePath. Removal fails while other tasks depend on it.
type RemoveTaskOp struct {
	ScopePath string
	Name      string
}

// Apply implements Op.
func (op *RemoveTaskOp) Apply(schema *core.Schema, _ *core.Task) error {
	var scope *core.Task
	if op.ScopePath != "" {
		scope = schema.Lookup(op.ScopePath)
		if scope == nil {
			return fmt.Errorf("remove task: no scope %q", op.ScopePath)
		}
	}
	return schema.RemoveTask(scope, op.Name)
}

// Describe implements Op.
func (op *RemoveTaskOp) Describe() string {
	return fmt.Sprintf("remove task %s from %q", op.Name, op.ScopePath)
}

// AddObjectSourceOp appends an alternative source (concrete syntax, e.g.
// "o1 of task t4 if output oc1") for an input object of the task at
// TaskPath — the paper's canonical way to add a redundant data source.
type AddObjectSourceOp struct {
	TaskPath string
	Set      string
	Object   string
	Source   string
}

// Apply implements Op.
func (op *AddObjectSourceOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("add source: no task %q", op.TaskPath)
	}
	src, err := sema.ResolveSourceSpec(schema, t, op.Set, op.Object, op.Source)
	if err != nil {
		return err
	}
	return schema.AddObjectSource(t, op.Set, op.Object, src)
}

// Describe implements Op.
func (op *AddObjectSourceOp) Describe() string {
	return fmt.Sprintf("add source %q for %s.%s:%s", op.Source, op.TaskPath, op.Set, op.Object)
}

// AddNotificationOp appends a notification dependency (alternatives in
// concrete syntax, e.g. "task t2 if output done") to an input set of the
// task at TaskPath. Notifications compose as AND-of-ORs: Extend = -1 (or
// the zero value with ExtendSet false... use NewGate) adds a new ANDed
// gate; Extend >= 0 adds OR alternatives to the Extend-th existing gate.
type AddNotificationOp struct {
	TaskPath string
	Set      string
	Sources  []string
	// Extend selects an existing notification to extend with
	// alternatives; negative adds a new (ANDed) notification. Note the
	// zero value extends gate 0 — use NewNotificationGate for clarity
	// when adding a gate.
	Extend int
}

// NewNotificationGate marks an AddNotificationOp as adding a new ANDed
// gate rather than extending an existing one.
const NewNotificationGate = -1

// Apply implements Op.
func (op *AddNotificationOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("add notification: no task %q", op.TaskPath)
	}
	srcs := make([]*core.Source, 0, len(op.Sources))
	for _, spec := range op.Sources {
		src, err := sema.ResolveSourceSpec(schema, t, op.Set, "", spec)
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
	}
	if op.Extend >= 0 {
		return schema.ExtendNotification(t, op.Set, op.Extend, srcs...)
	}
	return schema.AddNotification(t, op.Set, srcs...)
}

// Describe implements Op.
func (op *AddNotificationOp) Describe() string {
	return fmt.Sprintf("add notification to %s.%s", op.TaskPath, op.Set)
}

// RemoveObjectSourceOp deletes the Index-th alternative source of an
// input object.
type RemoveObjectSourceOp struct {
	TaskPath string
	Set      string
	Object   string
	Index    int
}

// Apply implements Op.
func (op *RemoveObjectSourceOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("remove source: no task %q", op.TaskPath)
	}
	return schema.RemoveObjectSource(t, op.Set, op.Object, op.Index)
}

// Describe implements Op.
func (op *RemoveObjectSourceOp) Describe() string {
	return fmt.Sprintf("remove source %d of %s.%s:%s", op.Index, op.TaskPath, op.Set, op.Object)
}

// RemoveNotificationOp deletes the Index-th notification dependency of an
// input set.
type RemoveNotificationOp struct {
	TaskPath string
	Set      string
	Index    int
}

// Apply implements Op.
func (op *RemoveNotificationOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("remove notification: no task %q", op.TaskPath)
	}
	return schema.RemoveNotification(t, op.Set, op.Index)
}

// Describe implements Op.
func (op *RemoveNotificationOp) Describe() string {
	return fmt.Sprintf("remove notification %d of %s.%s", op.Index, op.TaskPath, op.Set)
}

// AddOutputSourceOp appends an alternative source for an object of a
// compound task's output mapping — the Section 5.2 modification
// scenario: a compound's outcome gains a new way to be produced (e.g.
// a dispatch note from a supplier's direct-dispatch task).
type AddOutputSourceOp struct {
	TaskPath string
	Output   string
	Object   string
	Source   string
}

// Apply implements Op.
func (op *AddOutputSourceOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("add output source: no task %q", op.TaskPath)
	}
	src, err := sema.ResolveOutputSourceSpec(schema, t, op.Output, op.Object, op.Source)
	if err != nil {
		return err
	}
	return schema.AddOutputSource(t, op.Output, op.Object, src)
}

// Describe implements Op.
func (op *AddOutputSourceOp) Describe() string {
	return fmt.Sprintf("add output source %q for %s outputs/%s:%s", op.Source, op.TaskPath, op.Output, op.Object)
}

// AddOutputNotificationOp appends a notification dependency to a compound
// output mapping, or — when Extend is >= 0 — appends alternative sources
// to the Extend-th existing notification (an extra way for an existing
// gate to fire, e.g. one more cancellation alternative).
type AddOutputNotificationOp struct {
	TaskPath string
	Output   string
	Sources  []string
	// Extend selects an existing notification to extend with
	// alternatives; -1 adds a new (ANDed) notification.
	Extend int
}

// Apply implements Op.
func (op *AddOutputNotificationOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("add output notification: no task %q", op.TaskPath)
	}
	srcs := make([]*core.Source, 0, len(op.Sources))
	for _, spec := range op.Sources {
		src, err := sema.ResolveOutputSourceSpec(schema, t, op.Output, "", spec)
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
	}
	if op.Extend >= 0 {
		return schema.ExtendOutputNotification(t, op.Output, op.Extend, srcs...)
	}
	return schema.AddOutputNotification(t, op.Output, srcs...)
}

// Describe implements Op.
func (op *AddOutputNotificationOp) Describe() string {
	return fmt.Sprintf("add output notification to %s outputs/%s", op.TaskPath, op.Output)
}

// RemoveOutputNotificationSourceOp deletes one alternative source of an
// output-mapping notification (the gate disappears when its last
// alternative is removed).
type RemoveOutputNotificationSourceOp struct {
	TaskPath     string
	Output       string
	Notification int
	Index        int
}

// Apply implements Op.
func (op *RemoveOutputNotificationSourceOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("remove output notification source: no task %q", op.TaskPath)
	}
	return schema.RemoveOutputNotificationSource(t, op.Output, op.Notification, op.Index)
}

// Describe implements Op.
func (op *RemoveOutputNotificationSourceOp) Describe() string {
	return fmt.Sprintf("remove source %d of notification %d of %s outputs/%s", op.Index, op.Notification, op.TaskPath, op.Output)
}

// SetImplementationOp rewrites an implementation property of a task (for
// example rebinding "code" — the script-level half of online upgrade).
type SetImplementationOp struct {
	TaskPath string
	Key      string
	Value    string
}

// Apply implements Op.
func (op *SetImplementationOp) Apply(schema *core.Schema, _ *core.Task) error {
	t := schema.Lookup(op.TaskPath)
	if t == nil {
		return fmt.Errorf("set implementation: no task %q", op.TaskPath)
	}
	if err := t.CheckImplementationKey(op.Key); err != nil {
		return fmt.Errorf("set implementation: %w", err)
	}
	if t.Implementation == nil {
		t.Implementation = make(map[string]string, 1)
	}
	t.Implementation[op.Key] = op.Value
	return nil
}

// Describe implements Op.
func (op *SetImplementationOp) Describe() string {
	return fmt.Sprintf("set %s.%s = %q", op.TaskPath, op.Key, op.Value)
}

// reconfigRecord is the persisted form of one applied batch.
type reconfigRecord struct {
	Ops []Op
}

func init() { //nolint:gochecknoinits // gob type registration
	gob.Register(&AddTaskOp{})
	gob.Register(&RemoveTaskOp{})
	gob.Register(&AddObjectSourceOp{})
	gob.Register(&AddNotificationOp{})
	gob.Register(&AddOutputSourceOp{})
	gob.Register(&AddOutputNotificationOp{})
	gob.Register(&RemoveObjectSourceOp{})
	gob.Register(&RemoveNotificationOp{})
	gob.Register(&RemoveOutputNotificationSourceOp{})
	gob.Register(&SetImplementationOp{})
}

// Reconfigure applies a batch of operations to the running instance.
// The batch is atomic: it either fully applies (and is durably recorded
// for recovery) or the instance is unchanged.
func (i *Instance) Reconfigure(ops ...Op) error {
	if len(ops) == 0 {
		return errors.New("reconfigure: no operations")
	}
	errCh := make(chan error, 1)
	select {
	case i.reqCh <- func() { errCh <- i.reconfigure(ops) }:
	case <-i.loopDone:
		return ErrStopped
	}
	select {
	case err := <-errCh:
		return err
	case <-i.loopDone:
		return ErrStopped
	}
}

// reconfigure runs on the loop goroutine, between evaluation steps.
func (i *Instance) reconfigure(ops []Op) error {
	rootPath := i.root.Path()
	clone := i.schema.Clone()
	cloneRoot := clone.Lookup(rootPath)
	if cloneRoot == nil {
		return fmt.Errorf("reconfigure: root %q lost in clone", rootPath)
	}
	for _, op := range ops {
		if err := op.Apply(clone, cloneRoot); err != nil {
			return fmt.Errorf("reconfigure: %s: %w", op.Describe(), err)
		}
	}

	// Durably record the batch together with the bumped sequence number.
	seq := i.reconfigSeq
	meta := i.meta
	meta.ReconfigSeq = seq + 1
	if !i.eng.cfg.Ephemeral {
		b := i.eng.preg.NewBatch()
		err := b.Set(reconfigKey(i.id, seq), reconfigRecord{Ops: ops})
		if err == nil {
			err = b.Set(metaKey(i.id), meta)
		}
		if err == nil {
			err = b.Commit()
		}
		if err != nil {
			return fmt.Errorf("reconfigure: persist record: %w", err)
		}
	}
	i.meta = meta
	i.reconfigSeq = meta.ReconfigSeq

	// Swap the schema in and remap live runs onto the new task graph. The
	// clone's plan is built here, after its ops: the shared plan of the
	// old schema is never touched.
	i.schema = clone
	i.root = cloneRoot
	i.usePlan()
	for path, r := range i.runs {
		nt := clone.Lookup(path)
		if nt == nil {
			// The task was removed: cancel and drop its run (including
			// any pending delay timer and its durable record).
			if r.st.State == RunExecuting && !r.task.Compound {
				i.cancelDelay(r)
				select {
				case <-r.cancel:
				default:
					close(r.cancel)
				}
			}
			delete(i.runs, path)
			i.deleteRunState(path)
			continue
		}
		r.task = nt
	}
	// Newly added tasks inside executing compounds become waiting runs.
	for _, path := range i.plan.Paths {
		if _, exists := i.runs[path]; exists {
			continue
		}
		t := clone.Lookup(path)
		if t == nil || t.Parent == nil {
			continue
		}
		if pr, ok := i.runs[t.Parent.Path()]; ok && pr.st.State == RunExecuting {
			r := i.newRun(t, runState{Path: path, State: RunWaiting, MarksEmitted: make(map[string]bool)})
			i.runs[path] = r
			i.persistRun(r)
			i.emit(Event{Task: path, Kind: EventTaskWaiting})
		}
	}
	// usePlan above installed the new schema's reverse-dependency index
	// and emptied the worklist, whose positions indexed the old plan; a
	// changed dependency may be satisfiable by state that produced no
	// fresh event, so every live run re-enters the worklist.
	i.markAllDirty()
	descs := make([]string, len(ops))
	for idx, op := range ops {
		descs[idx] = op.Describe()
	}
	i.emit(Event{Kind: EventReconfigured, Output: strings.Join(descs, "; ")})
	// A stalled instance may be revived by the new structure.
	if i.Status() == StatusStalled {
		i.setStatus(StatusRunning)
	}
	return nil
}
