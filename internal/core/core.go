// Package core defines the compiled workflow schema model: the validated,
// pointer-linked form of a workflow script that the execution engine,
// repository service and baseline compilers consume.
//
// A Schema is produced from source text by internal/script/sema and is the
// paper's central artefact: object classes, task classes (signatures with
// alternative input sets and multi-kind outputs), task and compound-task
// instances wired together by ordered dataflow and notification
// dependencies.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// OutputKind distinguishes the four output types of a task class
// (Section 4.2 of the paper).
type OutputKind int

// Output kinds.
const (
	// Outcome is a final, effectful result of a task.
	Outcome OutputKind = iota + 1
	// AbortOutcome is a side-effect-free termination; declaring one makes
	// the task class atomic (transactional).
	AbortOutcome
	// RepeatOutcome restarts the task; its objects are only usable as the
	// task's own feedback inputs.
	RepeatOutcome
	// Mark is an intermediate output released during execution ("early
	// release"); a task that has marked can no longer abort.
	Mark
)

// String returns the concrete-syntax spelling of the kind.
func (k OutputKind) String() string {
	switch k {
	case Outcome:
		return "outcome"
	case AbortOutcome:
		return "abort outcome"
	case RepeatOutcome:
		return "repeat outcome"
	case Mark:
		return "mark"
	default:
		return fmt.Sprintf("outputkind(%d)", int(k))
	}
}

// SourceCond says how a dependency source is conditioned.
type SourceCond int

// Source conditions.
const (
	// CondNone accepts the object from any output of the source task that
	// carries it (and, for notifications, any terminal outcome).
	CondNone SourceCond = iota + 1
	// CondInput takes the object from the source task's named input set,
	// once that task has consumed its inputs (input sharing).
	CondInput
	// CondOutput takes the object from (or is notified by) the named
	// output of the source task.
	CondOutput
)

// String returns the spelling used in dependency listings.
func (c SourceCond) String() string {
	switch c {
	case CondNone:
		return ""
	case CondInput:
		return "input"
	case CondOutput:
		return "output"
	default:
		return fmt.Sprintf("cond(%d)", int(c))
	}
}

// Field is a typed object reference slot: `name of class Class`.
type Field struct {
	Name  string
	Class string
}

// InputSetDecl is one alternative input requirement of a task class.
type InputSetDecl struct {
	Name    string
	Objects []Field
}

// Field returns the field with the given name and whether it exists.
func (d *InputSetDecl) Field(name string) (Field, bool) {
	for _, f := range d.Objects {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Output is a named output of a task class.
type Output struct {
	Kind    OutputKind
	Name    string
	Objects []Field
}

// Field returns the output's field with the given name and whether it
// exists.
func (o *Output) Field(name string) (Field, bool) {
	for _, f := range o.Objects {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// TaskClass is a task signature: the structure of Fig. 2.
type TaskClass struct {
	Name      string
	InputSets []*InputSetDecl
	Outputs   []*Output
}

// InputSet returns the input set with the given name, or nil.
func (c *TaskClass) InputSet(name string) *InputSetDecl {
	for _, s := range c.InputSets {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Output returns the output with the given name, or nil.
func (c *TaskClass) Output(name string) *Output {
	for _, o := range c.Outputs {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// Atomic reports whether the class declares an abort outcome, which per
// Section 4.2 marks its instances as atomic (ACID) tasks.
func (c *TaskClass) Atomic() bool {
	for _, o := range c.Outputs {
		if o.Kind == AbortOutcome {
			return true
		}
	}
	return false
}

// Outcomes returns the outputs of the given kind in declaration order.
func (c *TaskClass) Outcomes(kind OutputKind) []*Output {
	var out []*Output
	for _, o := range c.Outputs {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// Source is one resolved alternative source of a dependency.
type Source struct {
	// Object is the name of the object at the source; empty for a pure
	// notification source.
	Object string
	// Task is the producing (or input-sharing) task instance. It may be
	// the depending task's enclosing compound (inputs flowing inward), a
	// sibling constituent, or the task itself (repeat feedback).
	Task *Task
	// Cond and CondName condition the source on an input set or output of
	// Task; Cond == CondNone accepts any carrying output.
	Cond     SourceCond
	CondName string
}

// String renders the source in (approximate) concrete syntax.
func (s *Source) String() string {
	var b strings.Builder
	if s.Object != "" {
		b.WriteString(s.Object)
		b.WriteString(" of ")
	}
	b.WriteString("task ")
	b.WriteString(s.Task.Name)
	if s.Cond != CondNone {
		fmt.Fprintf(&b, " if %s %s", s.Cond, s.CondName)
	}
	return b.String()
}

// ObjectDep is a dataflow dependency of a task input (or a compound-task
// output mapping): ordered alternative sources for one object reference.
type ObjectDep struct {
	Name    string
	Sources []*Source
}

// NotificationDep is a temporal dependency with ordered alternative
// sources.
type NotificationDep struct {
	Sources []*Source
}

// InputSetBinding binds one input set of a task instance to its
// dependencies. Objects must cover every field of Decl.
type InputSetBinding struct {
	Name          string
	Decl          *InputSetDecl
	Objects       []*ObjectDep
	Notifications []*NotificationDep
}

// ObjectDep returns the dependency feeding the named object, or nil.
func (b *InputSetBinding) ObjectDep(name string) *ObjectDep {
	for _, d := range b.Objects {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// OutputBinding maps one output of a compound task to sources among its
// constituents, plus gating notifications.
type OutputBinding struct {
	Output        *Output
	Objects       []*ObjectDep
	Notifications []*NotificationDep
}

// Task is a compiled task or compound-task instance.
type Task struct {
	// Name is the instance name local to its enclosing scope.
	Name string
	// Class is the task's signature.
	Class *TaskClass
	// Compound reports whether this instance specifies an internal
	// composition.
	Compound bool
	// Implementation holds the late-binding key/value pairs; the "code"
	// key names the executable or sub-script bound at run time.
	Implementation map[string]string
	// InputSets binds dependencies per input set, in declaration
	// (priority) order.
	InputSets []*InputSetBinding
	// Parent is the enclosing compound task, nil for a root task.
	Parent *Task
	// Constituents are the compound's member tasks in declaration order.
	Constituents []*Task
	// Outputs are the compound's output mappings.
	Outputs []*OutputBinding

	// path and plan memoise Path and Plan; both are safe to fill from
	// concurrent instances sharing the schema.
	path atomic.Pointer[string]
	plan atomic.Pointer[Plan]
}

// Path returns the slash-separated instance path from the root, used as a
// stable identifier in the engine and stores. It is built on the first
// call and shared after.
func (t *Task) Path() string {
	if p := t.path.Load(); p != nil {
		return *p
	}
	p := t.Name
	if t.Parent != nil {
		p = t.Parent.Path() + "/" + t.Name
	}
	t.path.Store(&p)
	return p
}

// forgetPaths drops the memoised paths of t's subtree; called when t
// moves to another parent.
func (t *Task) forgetPaths() {
	t.Walk(func(x *Task) { x.path.Store(nil) })
}

// Constituent returns the named direct constituent, or nil.
func (t *Task) Constituent(name string) *Task {
	for _, c := range t.Constituents {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// InputSet returns the named input-set binding, or nil.
func (t *Task) InputSet(name string) *InputSetBinding {
	for _, b := range t.InputSets {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// OutputBinding returns the mapping for the named output, or nil.
func (t *Task) OutputBinding(name string) *OutputBinding {
	for _, b := range t.Outputs {
		if b.Output.Name == name {
			return b
		}
	}
	return nil
}

// Code returns the implementation binding name under the "code" key.
func (t *Task) Code() string { return t.Implementation["code"] }

// Atomic reports whether the instance is atomic (its class declares an
// abort outcome).
func (t *Task) Atomic() bool { return t.Class.Atomic() }

// Walk visits t and all transitively contained constituents depth-first
// in declaration order.
func (t *Task) Walk(f func(*Task)) {
	f(t)
	for _, c := range t.Constituents {
		c.Walk(f)
	}
}

// Schema is a compiled workflow script: the unit stored by the repository
// service and instantiated by the execution service.
type Schema struct {
	// Name identifies the schema (usually the source file name).
	Name string
	// Source is the canonical source text the schema was compiled from;
	// kept because schemas are persisted and shipped as text.
	Source string
	// Classes are the declared object classes in order.
	Classes []string
	// Superclasses maps a class to its immediate super-class (the
	// sub-typing extension of Section 7); classes without an entry are
	// roots.
	Superclasses map[string]string
	// TaskClasses are the declared task signatures in order.
	TaskClasses []*TaskClass
	// Tasks are the top-level task instances in order; by convention a
	// deployable application script has a single root compound task.
	Tasks []*Task
}

// Class reports whether the named object class is declared.
func (s *Schema) Class(name string) bool {
	for _, c := range s.Classes {
		if c == name {
			return true
		}
	}
	return false
}

// AssignableTo reports whether an object of class sub may flow into a
// slot of class super: equal classes, or super reachable through the
// sub-typing chain. With no sub-typing declared this degrades to
// equality, the paper's original rule.
func (s *Schema) AssignableTo(sub, super string) bool {
	if sub == super {
		return true
	}
	seen := 0
	for c := sub; c != ""; c = s.Superclasses[c] {
		if c == super {
			return true
		}
		seen++
		if seen > len(s.Classes) {
			return false // defensive: malformed hierarchy
		}
	}
	return false
}

// TaskClass returns the named task class, or nil.
func (s *Schema) TaskClass(name string) *TaskClass {
	for _, c := range s.TaskClasses {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Task returns the named top-level task, or nil.
func (s *Schema) Task(name string) *Task {
	for _, t := range s.Tasks {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Root returns the designated root task: the single top-level task, or
// the named one if name is non-empty. It returns an error when the choice
// is ambiguous or missing.
func (s *Schema) Root(name string) (*Task, error) {
	if name != "" {
		t := s.Task(name)
		if t == nil {
			return nil, fmt.Errorf("schema %s: no top-level task %q", s.Name, name)
		}
		return t, nil
	}
	switch len(s.Tasks) {
	case 0:
		return nil, fmt.Errorf("schema %s: no top-level tasks", s.Name)
	case 1:
		return s.Tasks[0], nil
	default:
		names := make([]string, len(s.Tasks))
		for i, t := range s.Tasks {
			names[i] = t.Name
		}
		return nil, fmt.Errorf("schema %s: ambiguous root, have %s", s.Name, strings.Join(names, ", "))
	}
}

// Lookup resolves a slash-separated instance path (as produced by
// Task.Path) to a task, or nil.
func (s *Schema) Lookup(path string) *Task {
	parts := strings.Split(path, "/")
	cur := s.Task(parts[0])
	for _, p := range parts[1:] {
		if cur == nil {
			return nil
		}
		cur = cur.Constituent(p)
	}
	return cur
}

// AllTasks returns every task instance in the schema (top-level tasks and
// all nested constituents) in depth-first declaration order.
func (s *Schema) AllTasks() []*Task {
	var out []*Task
	for _, t := range s.Tasks {
		t.Walk(func(x *Task) { out = append(out, x) })
	}
	return out
}

// Stats summarises a schema for reporting and the specification-size
// comparison benches.
type Stats struct {
	Classes       int
	TaskClasses   int
	Tasks         int
	CompoundTasks int
	InputSets     int
	ObjectDeps    int
	Notifications int
	Sources       int
	Outputs       int
	MaxDepth      int
}

// Stats computes schema statistics.
func (s *Schema) Stats() Stats {
	st := Stats{Classes: len(s.Classes), TaskClasses: len(s.TaskClasses)}
	for _, c := range s.TaskClasses {
		st.Outputs += len(c.Outputs)
	}
	var walk func(t *Task, depth int)
	walk = func(t *Task, depth int) {
		st.Tasks++
		if t.Compound {
			st.CompoundTasks++
		}
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		st.InputSets += len(t.InputSets)
		for _, b := range t.InputSets {
			st.ObjectDeps += len(b.Objects)
			st.Notifications += len(b.Notifications)
			for _, d := range b.Objects {
				st.Sources += len(d.Sources)
			}
			for _, n := range b.Notifications {
				st.Sources += len(n.Sources)
			}
		}
		for _, ob := range t.Outputs {
			st.ObjectDeps += len(ob.Objects)
			st.Notifications += len(ob.Notifications)
			for _, d := range ob.Objects {
				st.Sources += len(d.Sources)
			}
			for _, n := range ob.Notifications {
				st.Sources += len(n.Sources)
			}
		}
		for _, c := range t.Constituents {
			walk(c, depth+1)
		}
	}
	for _, t := range s.Tasks {
		walk(t, 1)
	}
	return st
}

// SortedTaskClassNames returns the task class names in lexical order;
// used by printers and the repository inspection API for stable output.
func (s *Schema) SortedTaskClassNames() []string {
	names := make([]string, len(s.TaskClasses))
	for i, c := range s.TaskClasses {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}
