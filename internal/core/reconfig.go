package core

import (
	"errors"
	"fmt"
)

// Dynamic reconfiguration (Section 2 and Section 3 of the paper): the
// structure of an application can be changed by adding/deleting tasks and
// dependencies. These operations validate and mutate a Schema; the engine
// applies them to a *running* instance under an atomic transaction (see
// internal/engine.Reconfigure), mirroring the paper's use of transactions
// so that "changes are carried out atomically with respect to normal
// processing".

// ErrTaskExists is returned when adding a task whose name is taken.
var ErrTaskExists = errors.New("task already exists")

// ErrTaskNotFound is returned when the referenced task does not exist.
var ErrTaskNotFound = errors.New("task not found")

// ErrHasDependents is returned when removing a task that other tasks
// still depend upon.
var ErrHasDependents = errors.New("task has dependents")

// AddTask inserts task nt as a new constituent of scope (or as a
// top-level task when scope is nil). The task's sources must already be
// resolved to tasks reachable in the schema; the insertion is validated
// for name clashes and cycles before any mutation becomes visible.
func (s *Schema) AddTask(scope *Task, nt *Task) error {
	if nt == nil {
		return errors.New("add task: nil task")
	}
	sibs := s.Tasks
	if scope != nil {
		sibs = scope.Constituents
	}
	for _, t := range sibs {
		if t.Name == nt.Name {
			return fmt.Errorf("add task %s: %w", nt.Name, ErrTaskExists)
		}
	}
	nt.Parent = scope
	nt.forgetPaths()
	trial := append(append([]*Task{}, sibs...), nt)
	if err := checkScopeCycles(scope, trial); err != nil {
		return fmt.Errorf("add task %s: %w", nt.Name, err)
	}
	if scope != nil {
		scope.Constituents = trial
	} else {
		s.Tasks = trial
	}
	return nil
}

// RemoveTask deletes the named constituent from scope. It fails with
// ErrHasDependents if any remaining task lists it as a source, preserving
// the unidirectional-dependency invariant.
func (s *Schema) RemoveTask(scope *Task, name string) error {
	sibs := s.Tasks
	if scope != nil {
		sibs = scope.Constituents
	}
	idx := -1
	for i, t := range sibs {
		if t.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("remove task %s: %w", name, ErrTaskNotFound)
	}
	victim := sibs[idx]
	if deps := s.Dependents(victim); len(deps) > 0 {
		return fmt.Errorf("remove task %s: %w (%s depends on it)", name, ErrHasDependents, deps[0].Path())
	}
	out := append(append([]*Task{}, sibs[:idx]...), sibs[idx+1:]...)
	if scope != nil {
		scope.Constituents = out
	} else {
		s.Tasks = out
	}
	victim.Parent = nil
	victim.forgetPaths()
	return nil
}

// AddObjectSource appends an alternative source to the object dependency
// objName of input set setName of task t. Because dependencies are
// unidirectional this touches only t — the paper's locality-of-change
// property. The source task must be in scope (a sibling, the enclosing
// compound, or t itself for repeat feedback).
func (s *Schema) AddObjectSource(t *Task, setName, objName string, src *Source) error {
	if err := s.checkSourceInScope(t, src); err != nil {
		return err
	}
	b := t.InputSet(setName)
	if b == nil {
		return fmt.Errorf("task %s: no input set %q", t.Path(), setName)
	}
	d := b.ObjectDep(objName)
	if d == nil {
		// A brand new object dependency: allowed only if the class
		// declares the field.
		if _, ok := b.Decl.Field(objName); !ok {
			return fmt.Errorf("task %s: input set %q has no object %q", t.Path(), setName, objName)
		}
		d = &ObjectDep{Name: objName}
		b.Objects = append(b.Objects, d)
	}
	d.Sources = append(d.Sources, src)
	if err := checkScopeCycles(t.Parent, s.scopeOf(t)); err != nil {
		// Roll back the append.
		d.Sources = d.Sources[:len(d.Sources)-1]
		if len(d.Sources) == 0 {
			b.Objects = b.Objects[:len(b.Objects)-1]
		}
		return err
	}
	return nil
}

// AddNotification appends a notification dependency with the given
// alternative sources to input set setName of task t.
func (s *Schema) AddNotification(t *Task, setName string, srcs ...*Source) error {
	if len(srcs) == 0 {
		return errors.New("add notification: no sources")
	}
	for _, src := range srcs {
		if err := s.checkSourceInScope(t, src); err != nil {
			return err
		}
	}
	b := t.InputSet(setName)
	if b == nil {
		return fmt.Errorf("task %s: no input set %q", t.Path(), setName)
	}
	b.Notifications = append(b.Notifications, &NotificationDep{Sources: srcs})
	if err := checkScopeCycles(t.Parent, s.scopeOf(t)); err != nil {
		b.Notifications = b.Notifications[:len(b.Notifications)-1]
		return err
	}
	return nil
}

// ExtendNotification appends alternative sources to the i-th
// notification dependency of input set setName of task t: the gate keeps
// its AND position but gains OR alternatives (a redundant trigger).
func (s *Schema) ExtendNotification(t *Task, setName string, i int, srcs ...*Source) error {
	if len(srcs) == 0 {
		return errors.New("extend notification: no sources")
	}
	for _, src := range srcs {
		if err := s.checkSourceInScope(t, src); err != nil {
			return err
		}
	}
	b := t.InputSet(setName)
	if b == nil {
		return fmt.Errorf("task %s: no input set %q", t.Path(), setName)
	}
	if i < 0 || i >= len(b.Notifications) {
		return fmt.Errorf("task %s input set %q: notification index %d out of range [0,%d)", t.Path(), setName, i, len(b.Notifications))
	}
	nd := b.Notifications[i]
	nd.Sources = append(nd.Sources, srcs...)
	if err := checkScopeCycles(t.Parent, s.scopeOf(t)); err != nil {
		nd.Sources = nd.Sources[:len(nd.Sources)-len(srcs)]
		return err
	}
	return nil
}

// RemoveNotification deletes the i-th notification dependency of input
// set setName of task t.
func (s *Schema) RemoveNotification(t *Task, setName string, i int) error {
	b := t.InputSet(setName)
	if b == nil {
		return fmt.Errorf("task %s: no input set %q", t.Path(), setName)
	}
	if i < 0 || i >= len(b.Notifications) {
		return fmt.Errorf("task %s input set %q: notification index %d out of range [0,%d)", t.Path(), setName, i, len(b.Notifications))
	}
	b.Notifications = append(b.Notifications[:i], b.Notifications[i+1:]...)
	return nil
}

// RemoveObjectSource deletes the i-th alternative source of the object
// dependency objName in input set setName of task t. Removing the last
// alternative fails, as it would leave the input unsatisfiable.
func (s *Schema) RemoveObjectSource(t *Task, setName, objName string, i int) error {
	b := t.InputSet(setName)
	if b == nil {
		return fmt.Errorf("task %s: no input set %q", t.Path(), setName)
	}
	d := b.ObjectDep(objName)
	if d == nil {
		return fmt.Errorf("task %s input set %q: no object dependency %q", t.Path(), setName, objName)
	}
	if i < 0 || i >= len(d.Sources) {
		return fmt.Errorf("task %s input %q object %q: source index %d out of range [0,%d)", t.Path(), setName, objName, i, len(d.Sources))
	}
	if len(d.Sources) == 1 {
		return fmt.Errorf("task %s input %q object %q: cannot remove the only source", t.Path(), setName, objName)
	}
	d.Sources = append(d.Sources[:i], d.Sources[i+1:]...)
	return nil
}

// AddOutputSource appends an alternative source to the object mapping
// objName of compound output outName of task t — the Section 5.2
// modification scenario ("arrange direct dispatch from the suppliers"):
// an output of the compound gains a new way to be produced without any
// upstream or downstream task changing.
func (s *Schema) AddOutputSource(t *Task, outName, objName string, src *Source) error {
	if err := s.checkOutputSourceInScope(t, src); err != nil {
		return err
	}
	ob := t.OutputBinding(outName)
	if ob == nil {
		return fmt.Errorf("task %s: no output mapping %q", t.Path(), outName)
	}
	var dep *ObjectDep
	for _, d := range ob.Objects {
		if d.Name == objName {
			dep = d
			break
		}
	}
	if dep == nil {
		if _, ok := ob.Output.Field(objName); !ok {
			return fmt.Errorf("task %s output %q: no object %q", t.Path(), outName, objName)
		}
		dep = &ObjectDep{Name: objName}
		ob.Objects = append(ob.Objects, dep)
	}
	dep.Sources = append(dep.Sources, src)
	return nil
}

// AddOutputNotification appends a notification dependency (with ordered
// alternatives) to a compound output mapping: a new way for the outcome
// to be gated, e.g. an extra cancellation alternative.
func (s *Schema) AddOutputNotification(t *Task, outName string, srcs ...*Source) error {
	if len(srcs) == 0 {
		return errors.New("add output notification: no sources")
	}
	for _, src := range srcs {
		if err := s.checkOutputSourceInScope(t, src); err != nil {
			return err
		}
	}
	ob := t.OutputBinding(outName)
	if ob == nil {
		return fmt.Errorf("task %s: no output mapping %q", t.Path(), outName)
	}
	ob.Notifications = append(ob.Notifications, &NotificationDep{Sources: srcs})
	return nil
}

// ExtendOutputNotification appends alternative sources to the i-th
// notification of a compound output mapping (an additional alternative
// for an existing gate, preserving AND-of-ORs structure).
func (s *Schema) ExtendOutputNotification(t *Task, outName string, i int, srcs ...*Source) error {
	ob := t.OutputBinding(outName)
	if ob == nil {
		return fmt.Errorf("task %s: no output mapping %q", t.Path(), outName)
	}
	if i < 0 || i >= len(ob.Notifications) {
		return fmt.Errorf("task %s output %q: notification index %d out of range [0,%d)", t.Path(), outName, i, len(ob.Notifications))
	}
	for _, src := range srcs {
		if err := s.checkOutputSourceInScope(t, src); err != nil {
			return err
		}
	}
	ob.Notifications[i].Sources = append(ob.Notifications[i].Sources, srcs...)
	return nil
}

// RemoveOutputNotificationSource deletes the j-th alternative source of
// the i-th notification of a compound output mapping; removing the last
// alternative removes the notification itself (the gate disappears).
// This is the other half of the Section 5.2 policy change: when direct
// supplier dispatch is introduced, "warehouse out of stock" stops being a
// cancellation trigger.
func (s *Schema) RemoveOutputNotificationSource(t *Task, outName string, i, j int) error {
	ob := t.OutputBinding(outName)
	if ob == nil {
		return fmt.Errorf("task %s: no output mapping %q", t.Path(), outName)
	}
	if i < 0 || i >= len(ob.Notifications) {
		return fmt.Errorf("task %s output %q: notification index %d out of range [0,%d)", t.Path(), outName, i, len(ob.Notifications))
	}
	nd := ob.Notifications[i]
	if j < 0 || j >= len(nd.Sources) {
		return fmt.Errorf("task %s output %q notification %d: source index %d out of range [0,%d)", t.Path(), outName, i, j, len(nd.Sources))
	}
	nd.Sources = append(nd.Sources[:j], nd.Sources[j+1:]...)
	if len(nd.Sources) == 0 {
		ob.Notifications = append(ob.Notifications[:i], ob.Notifications[i+1:]...)
	}
	return nil
}

// checkOutputSourceInScope validates that an output-mapping source is a
// constituent of t or t itself.
func (s *Schema) checkOutputSourceInScope(t *Task, src *Source) error {
	if src == nil || src.Task == nil {
		return errors.New("nil source")
	}
	if src.Task == t {
		return nil
	}
	for _, c := range t.Constituents {
		if c == src.Task {
			return nil
		}
	}
	return fmt.Errorf("task %s: output source task %s is not a constituent", t.Path(), src.Task.Name)
}

// scopeOf returns the sibling list containing t.
func (s *Schema) scopeOf(t *Task) []*Task {
	if t.Parent != nil {
		return t.Parent.Constituents
	}
	return s.Tasks
}

// checkSourceInScope validates that src.Task is visible from t: t itself
// (repeat feedback), a sibling in the same scope, or the enclosing
// compound.
func (s *Schema) checkSourceInScope(t *Task, src *Source) error {
	if src == nil || src.Task == nil {
		return errors.New("nil source")
	}
	if src.Task == t || src.Task == t.Parent {
		return nil
	}
	for _, sib := range s.scopeOf(t) {
		if sib == src.Task {
			return nil
		}
	}
	return fmt.Errorf("task %s: source task %s is not in scope", t.Path(), src.Task.Name)
}
