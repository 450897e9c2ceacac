// Package sema performs semantic analysis of parsed workflow scripts and
// compiles them into the core schema model.
//
// The checks implement the static rules implied by Section 4 of the
// paper: declared-before-use of object and task classes, conformance of
// task instances to their task classes, resolution of dependency sources
// to in-scope tasks (siblings, the enclosing compound, or the task itself
// for repeat feedback), class compatibility of flowing objects (including
// the optional sub-typing extension of Section 7: a sub-class object may
// flow into a super-class slot), the atomicity rules (an abort outcome
// makes a task atomic; an atomic task cannot declare marks; repeat
// outcomes of other tasks are not usable as inputs), coverage of input
// sets and compound output mappings, and acyclicity of each compound
// scope. Task templates are expanded before compilation.
package sema

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/script/ast"
	"repro/internal/script/parser"
	"repro/internal/script/token"
)

// Error is a semantic diagnostic with its source position.
type Error struct {
	Pos token.Position
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is an ordered collection of semantic errors.
type ErrorList []*Error

// Error renders up to ten errors, one per line.
func (l ErrorList) Error() string {
	const maxShown = 10
	var b strings.Builder
	for i, e := range l {
		if i == maxShown {
			fmt.Fprintf(&b, "... and %d more errors", len(l)-maxShown)
			break
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Err returns the list as an error, or nil if empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

type checker struct {
	script    *ast.Script
	schema    *core.Schema
	templates map[string]*ast.TaskTemplateDecl
	errs      ErrorList
}

// Compile type-checks script and builds the compiled schema. On error the
// partial schema is still returned for tooling that wants best-effort
// inspection.
func Compile(script *ast.Script) (*core.Schema, error) {
	c := &checker{
		script:    script,
		schema:    &core.Schema{Name: script.File},
		templates: make(map[string]*ast.TaskTemplateDecl),
	}
	c.collectClasses()
	c.collectTaskClasses()
	c.collectTemplates()
	c.compileTasks()
	if len(c.errs) == 0 {
		if err := c.schema.CheckCycles(); err != nil {
			c.errs = append(c.errs, &Error{Pos: token.Position{File: script.File}, Msg: err.Error()})
		}
	}
	return c.schema, c.errs.Err()
}

// CompileSource parses and compiles a script in one step.
func CompileSource(name string, src []byte) (*core.Schema, error) {
	s, err := parser.Parse(name, src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	schema, err := Compile(s)
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", name, err)
	}
	schema.Source = string(src)
	return schema, nil
}

// MustCompileSource is CompileSource that panics on error; for tests and
// embedded known-good scripts.
func MustCompileSource(name string, src []byte) *core.Schema {
	schema, err := CompileSource(name, src)
	if err != nil {
		panic(fmt.Sprintf("sema.MustCompileSource(%s): %v", name, err))
	}
	return schema
}

func (c *checker) errorf(pos token.Position, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collectClasses() {
	seen := make(map[string]bool)
	c.schema.Superclasses = make(map[string]string)
	// Pass 1: names (so super-class references may be forward).
	for _, d := range c.script.Classes() {
		if seen[d.Name] {
			c.errorf(d.Pos(), "duplicate class %s", d.Name)
			continue
		}
		seen[d.Name] = true
		c.schema.Classes = append(c.schema.Classes, d.Name)
	}
	// Pass 2: the sub-typing hierarchy (Section 7 extension).
	for _, d := range c.script.Classes() {
		if d.Super == "" {
			continue
		}
		if !seen[d.Super] {
			c.errorf(d.Pos(), "class %s: undeclared superclass %s", d.Name, d.Super)
			continue
		}
		if d.Super == d.Name {
			c.errorf(d.Pos(), "class %s cannot be its own superclass", d.Name)
			continue
		}
		c.schema.Superclasses[d.Name] = d.Super
	}
	// Reject cycles in the hierarchy.
	for _, name := range c.schema.Classes {
		slow, fast := name, c.schema.Superclasses[name]
		for fast != "" {
			if fast == slow {
				c.errorf(token.Position{File: c.script.File}, "class hierarchy cycle involving %s", name)
				delete(c.schema.Superclasses, name)
				break
			}
			slow = c.schema.Superclasses[slow]
			fast = c.schema.Superclasses[c.schema.Superclasses[fast]]
		}
	}
}

func (c *checker) collectTaskClasses() {
	for _, d := range c.script.TaskClasses() {
		if c.schema.TaskClass(d.Name) != nil {
			c.errorf(d.Pos(), "duplicate taskclass %s", d.Name)
			continue
		}
		tc := &core.TaskClass{Name: d.Name}
		setSeen := make(map[string]bool)
		for _, in := range d.Inputs {
			if setSeen[in.Name] {
				c.errorf(in.Pos(), "taskclass %s: duplicate input set %s", d.Name, in.Name)
				continue
			}
			setSeen[in.Name] = true
			set := &core.InputSetDecl{Name: in.Name}
			fieldSeen := make(map[string]bool)
			for _, f := range in.Objects {
				if fieldSeen[f.Name] {
					c.errorf(f.Pos(), "taskclass %s input %s: duplicate object %s", d.Name, in.Name, f.Name)
					continue
				}
				fieldSeen[f.Name] = true
				c.checkClassRef(f.Pos(), f.Class)
				set.Objects = append(set.Objects, core.Field{Name: f.Name, Class: f.Class})
			}
			tc.InputSets = append(tc.InputSets, set)
		}
		outSeen := make(map[string]bool)
		hasAbort, hasMark := false, false
		var markPos, abortPos token.Position
		for _, out := range d.Outputs {
			if outSeen[out.Name] {
				c.errorf(out.Pos(), "taskclass %s: duplicate output %s", d.Name, out.Name)
				continue
			}
			outSeen[out.Name] = true
			o := &core.Output{Kind: kindOf(out.Kind), Name: out.Name}
			switch o.Kind {
			case core.AbortOutcome:
				hasAbort, abortPos = true, out.Pos()
			case core.Mark:
				hasMark, markPos = true, out.Pos()
			}
			fieldSeen := make(map[string]bool)
			for _, f := range out.Objects {
				if fieldSeen[f.Name] {
					c.errorf(f.Pos(), "taskclass %s output %s: duplicate object %s", d.Name, out.Name, f.Name)
					continue
				}
				fieldSeen[f.Name] = true
				c.checkClassRef(f.Pos(), f.Class)
				o.Objects = append(o.Objects, core.Field{Name: f.Name, Class: f.Class})
			}
			tc.Outputs = append(tc.Outputs, o)
		}
		// Section 4.2: an abort outcome declares the task atomic, and an
		// atomic task can produce outputs only after it commits, so marks
		// are incompatible with abort outcomes at the class level.
		if hasAbort && hasMark {
			pos := markPos
			if !pos.IsValid() {
				pos = abortPos
			}
			c.errorf(pos, "taskclass %s: atomic task class (has abort outcome) cannot declare mark outputs", d.Name)
		}
		c.schema.TaskClasses = append(c.schema.TaskClasses, tc)
	}
}

func (c *checker) checkClassRef(pos token.Position, name string) {
	if !c.schema.Class(name) {
		c.errorf(pos, "undeclared class %s", name)
	}
}

func kindOf(k ast.OutputKind) core.OutputKind {
	switch k {
	case ast.Outcome:
		return core.Outcome
	case ast.AbortOutcome:
		return core.AbortOutcome
	case ast.RepeatOutcome:
		return core.RepeatOutcome
	case ast.Mark:
		return core.Mark
	default:
		return core.Outcome
	}
}

func (c *checker) collectTemplates() {
	for _, d := range c.script.Templates() {
		if _, dup := c.templates[d.Name]; dup {
			c.errorf(d.Pos(), "duplicate tasktemplate %s", d.Name)
			continue
		}
		seen := make(map[string]bool)
		for _, p := range d.Params {
			if seen[p] {
				c.errorf(d.Pos(), "tasktemplate %s: duplicate parameter %s", d.Name, p)
			}
			seen[p] = true
		}
		c.templates[d.Name] = d
	}
}

// compileTasks builds the top-level task instances (templates already
// collected). Compilation is two-phase per scope: first task shells are
// created so forward references resolve, then dependencies are resolved.
func (c *checker) compileTasks() {
	var decls []*ast.TaskDecl
	for _, d := range c.script.Decls {
		switch x := d.(type) {
		case *ast.TaskDecl:
			decls = append(decls, x)
		case *ast.TemplateInstDecl:
			if inst := c.expandTemplate(x); inst != nil {
				decls = append(decls, inst)
			}
		}
	}
	c.schema.Tasks = c.compileScope(nil, decls)
}

// compileScope compiles the sibling declarations of one scope (top level
// or a compound body) with parent as the enclosing compound.
func (c *checker) compileScope(parent *core.Task, decls []*ast.TaskDecl) []*core.Task {
	return c.compileScopeSeeded(parent, decls, nil)
}

// compileScopeSeeded is compileScope with pre-existing sibling tasks
// visible for name resolution; fragment compilation (dynamic
// reconfiguration) seeds it with the constituents already in the scope.
func (c *checker) compileScopeSeeded(parent *core.Task, decls []*ast.TaskDecl, seed map[string]*core.Task) []*core.Task {
	// Phase 1: shells.
	tasks := make([]*core.Task, 0, len(decls))
	byName := make(map[string]*core.Task, len(decls)+len(seed))
	for k, v := range seed {
		byName[k] = v
	}
	kept := make([]*ast.TaskDecl, 0, len(decls))
	for _, d := range decls {
		if _, dup := byName[d.Name]; dup {
			c.errorf(d.Pos(), "duplicate task %s", d.Name)
			continue
		}
		tc := c.schema.TaskClass(d.Class)
		if tc == nil {
			c.errorf(d.Pos(), "task %s: undeclared taskclass %s", d.Name, d.Class)
			continue
		}
		t := &core.Task{
			Name:           d.Name,
			Class:          tc,
			Compound:       d.Compound,
			Implementation: make(map[string]string, len(d.Implementation)),
			Parent:         parent,
		}
		for _, p := range d.Implementation {
			if _, dup := t.Implementation[p.Key]; dup {
				c.errorf(p.Pos(), "task %s: duplicate implementation key %q", d.Name, p.Key)
			}
			t.Implementation[p.Key] = p.Value
			if err := t.CheckImplementationKey(p.Key); err != nil {
				c.errorf(p.Pos(), "%v", err)
			}
		}
		if !d.Compound && len(d.Constituents) > 0 {
			c.errorf(d.Pos(), "task %s: plain task cannot have constituents", d.Name)
		}
		byName[d.Name] = t
		tasks = append(tasks, t)
		kept = append(kept, d)
	}

	// Phase 2: constituents (recursively), then dependency resolution.
	for i, d := range kept {
		t := tasks[i]
		if d.Compound {
			var sub []*ast.TaskDecl
			for _, cd := range d.Constituents {
				switch x := cd.(type) {
				case *ast.TaskDecl:
					sub = append(sub, x)
				case *ast.TemplateInstDecl:
					if inst := c.expandTemplate(x); inst != nil {
						sub = append(sub, inst)
					}
				default:
					c.errorf(cd.Pos(), "compound task %s: unexpected constituent declaration", d.Name)
				}
			}
			t.Constituents = c.compileScope(t, sub)
		}
	}
	for i, d := range kept {
		c.resolveTask(tasks[i], d, byName)
	}
	return tasks
}

// scopeLookup resolves a task name from the perspective of t: itself, a
// sibling, or any ancestor compound.
func scopeLookup(t *core.Task, siblings map[string]*core.Task, name string) *core.Task {
	if t.Name == name {
		return t
	}
	if s, ok := siblings[name]; ok {
		return s
	}
	for p := t.Parent; p != nil; p = p.Parent {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func (c *checker) resolveTask(t *core.Task, d *ast.TaskDecl, siblings map[string]*core.Task) {
	setSeen := make(map[string]bool)
	for _, in := range d.Inputs {
		if setSeen[in.Name] {
			c.errorf(in.Pos(), "task %s: duplicate input set binding %s", d.Name, in.Name)
			continue
		}
		setSeen[in.Name] = true
		decl := t.Class.InputSet(in.Name)
		if decl == nil {
			c.errorf(in.Pos(), "task %s: taskclass %s has no input set %s", d.Name, t.Class.Name, in.Name)
			continue
		}
		b := &core.InputSetBinding{Name: in.Name, Decl: decl}
		objSeen := make(map[string]bool)
		for _, dep := range in.Deps {
			switch x := dep.(type) {
			case *ast.ObjectDep:
				field, ok := decl.Field(x.Name)
				if !ok {
					c.errorf(x.Pos(), "task %s input %s: taskclass %s declares no object %s", d.Name, in.Name, t.Class.Name, x.Name)
					continue
				}
				if objSeen[x.Name] {
					c.errorf(x.Pos(), "task %s input %s: duplicate dependency for object %s", d.Name, in.Name, x.Name)
					continue
				}
				objSeen[x.Name] = true
				od := &core.ObjectDep{Name: x.Name}
				for _, src := range x.Sources {
					if rs := c.resolveSource(t, siblings, src, &field); rs != nil {
						od.Sources = append(od.Sources, rs)
					}
				}
				if len(od.Sources) == 0 {
					c.errorf(x.Pos(), "task %s input %s object %s: no valid sources", d.Name, in.Name, x.Name)
				}
				b.Objects = append(b.Objects, od)
			case *ast.NotificationDep:
				nd := &core.NotificationDep{}
				for _, src := range x.Sources {
					if rs := c.resolveSource(t, siblings, src, nil); rs != nil {
						nd.Sources = append(nd.Sources, rs)
					}
				}
				if len(nd.Sources) == 0 {
					c.errorf(x.Pos(), "task %s input %s: notification has no valid sources", d.Name, in.Name)
				}
				b.Notifications = append(b.Notifications, nd)
			}
		}
		// Coverage: every declared object of the set must be fed.
		for _, f := range decl.Objects {
			if !objSeen[f.Name] {
				c.errorf(in.Pos(), "task %s input %s: missing dependency for object %s (of class %s)", d.Name, in.Name, f.Name, f.Class)
			}
		}
		t.InputSets = append(t.InputSets, b)
	}

	// A constituent task that binds no input set can never be started by
	// dependency satisfaction unless its class requires no inputs at all.
	if t.Parent != nil && len(t.InputSets) == 0 && requiresInputs(t.Class) {
		c.errorf(d.Pos(), "task %s: binds no input set but taskclass %s requires inputs", d.Name, t.Class.Name)
	}

	// Output mappings (compound tasks only).
	if len(d.Outputs) > 0 && !d.Compound {
		c.errorf(d.Pos(), "task %s: output mappings are only allowed on compound tasks", d.Name)
	}
	outSeen := make(map[string]bool)
	for _, ob := range d.Outputs {
		out := t.Class.Output(ob.Name)
		if out == nil {
			c.errorf(ob.Pos(), "compound task %s: taskclass %s has no output %s", d.Name, t.Class.Name, ob.Name)
			continue
		}
		if kindOf(ob.Kind) != out.Kind {
			c.errorf(ob.Pos(), "compound task %s output %s: declared as %s but taskclass says %s", d.Name, ob.Name, kindOf(ob.Kind), out.Kind)
		}
		if outSeen[ob.Name] {
			c.errorf(ob.Pos(), "compound task %s: duplicate output mapping %s", d.Name, ob.Name)
			continue
		}
		outSeen[ob.Name] = true
		binding := &core.OutputBinding{Output: out}
		mapped := make(map[string]bool)
		for _, dep := range ob.Deps {
			switch x := dep.(type) {
			case *ast.ObjectDep:
				field, ok := out.Field(x.Name)
				if !ok {
					c.errorf(x.Pos(), "compound task %s output %s: no object %s in taskclass output", d.Name, ob.Name, x.Name)
					continue
				}
				if mapped[x.Name] {
					c.errorf(x.Pos(), "compound task %s output %s: duplicate mapping for %s", d.Name, ob.Name, x.Name)
					continue
				}
				mapped[x.Name] = true
				od := &core.ObjectDep{Name: x.Name}
				for _, src := range x.Sources {
					if rs := c.resolveOutputSource(t, src, &field); rs != nil {
						od.Sources = append(od.Sources, rs)
					}
				}
				if len(od.Sources) == 0 {
					c.errorf(x.Pos(), "compound task %s output %s object %s: no valid sources", d.Name, ob.Name, x.Name)
				}
				binding.Objects = append(binding.Objects, od)
			case *ast.NotificationDep:
				nd := &core.NotificationDep{}
				for _, src := range x.Sources {
					if rs := c.resolveOutputSource(t, src, nil); rs != nil {
						nd.Sources = append(nd.Sources, rs)
					}
				}
				if len(nd.Sources) == 0 {
					c.errorf(x.Pos(), "compound task %s output %s: notification has no valid sources", d.Name, ob.Name)
				}
				binding.Notifications = append(binding.Notifications, nd)
			}
		}
		for _, f := range out.Objects {
			if !mapped[f.Name] {
				c.errorf(ob.Pos(), "compound task %s output %s: object %s is not mapped from any constituent", d.Name, ob.Name, f.Name)
			}
		}
		t.Outputs = append(t.Outputs, binding)
	}
	if d.Compound && len(t.Outputs) == 0 && len(t.Class.Outcomes(core.Outcome))+len(t.Class.Outcomes(core.AbortOutcome)) > 0 {
		c.errorf(d.Pos(), "compound task %s: no output mappings, the task could never terminate", d.Name)
	}
}

// requiresInputs reports whether every input set of the class demands at
// least one object, i.e. an unbound instance could never start.
func requiresInputs(tc *core.TaskClass) bool {
	if len(tc.InputSets) == 0 {
		return false
	}
	for _, s := range tc.InputSets {
		if len(s.Objects) == 0 {
			return false // an empty set is trivially satisfiable
		}
	}
	return true
}

// resolveSource resolves one alternative source of an input dependency of
// task t. field is nil for notification sources. Returns nil after
// reporting diagnostics.
func (c *checker) resolveSource(t *core.Task, siblings map[string]*core.Task, src *ast.SourceRef, field *core.Field) *core.Source {
	srcTask := scopeLookup(t, siblings, src.Task)
	if srcTask == nil {
		c.errorf(src.Pos(), "task %s: unknown source task %s", t.Name, src.Task)
		return nil
	}
	return c.checkSource(t, srcTask, src, field)
}

// resolveOutputSource resolves a source of a compound output mapping:
// sources must be constituents of t (or t itself for its inputs).
func (c *checker) resolveOutputSource(t *core.Task, src *ast.SourceRef, field *core.Field) *core.Source {
	var srcTask *core.Task
	if src.Task == t.Name {
		srcTask = t
	} else if ct := t.Constituent(src.Task); ct != nil {
		srcTask = ct
	}
	if srcTask == nil {
		c.errorf(src.Pos(), "compound task %s: output source task %s is not a constituent", t.Name, src.Task)
		return nil
	}
	return c.checkSource(t, srcTask, src, field)
}

// checkSource validates conditioning and class compatibility of a source
// against the destination field (nil for notifications).
func (c *checker) checkSource(t, srcTask *core.Task, src *ast.SourceRef, field *core.Field) *core.Source {
	out := &core.Source{
		Object:   src.Object,
		Task:     srcTask,
		Cond:     condOf(src.Cond),
		CondName: src.CondName,
	}
	sc := srcTask.Class
	switch out.Cond {
	case core.CondInput:
		set := sc.InputSet(src.CondName)
		if set == nil {
			c.errorf(src.Pos(), "task %s: source task %s has no input set %s", t.Name, srcTask.Name, src.CondName)
			return nil
		}
		if field != nil {
			f, ok := set.Field(src.Object)
			if !ok {
				c.errorf(src.Pos(), "task %s: input set %s of task %s carries no object %s", t.Name, src.CondName, srcTask.Name, src.Object)
				return nil
			}
			if !c.schema.AssignableTo(f.Class, field.Class) {
				c.errorf(src.Pos(), "task %s: class mismatch for %s: have %s, want %s", t.Name, src.Object, f.Class, field.Class)
				return nil
			}
		}
	case core.CondOutput:
		o := sc.Output(src.CondName)
		if o == nil {
			c.errorf(src.Pos(), "task %s: source task %s has no output %s", t.Name, srcTask.Name, src.CondName)
			return nil
		}
		// Section 4.2: repeat-outcome objects are usable only as the
		// producing task's own feedback inputs.
		if o.Kind == core.RepeatOutcome && srcTask != t {
			c.errorf(src.Pos(), "task %s: repeat outcome %s of task %s is not usable by other tasks", t.Name, src.CondName, srcTask.Name)
			return nil
		}
		if field != nil {
			f, ok := o.Field(src.Object)
			if !ok {
				c.errorf(src.Pos(), "task %s: output %s of task %s carries no object %s", t.Name, src.CondName, srcTask.Name, src.Object)
				return nil
			}
			if !c.schema.AssignableTo(f.Class, field.Class) {
				c.errorf(src.Pos(), "task %s: class mismatch for %s: have %s, want %s", t.Name, src.Object, f.Class, field.Class)
				return nil
			}
		}
	case core.CondNone:
		if field != nil {
			// At least one output (of any kind except repeat) must carry
			// a compatible object of this name.
			found := false
			for _, o := range sc.Outputs {
				if o.Kind == core.RepeatOutcome && srcTask != t {
					continue
				}
				if f, ok := o.Field(src.Object); ok && c.schema.AssignableTo(f.Class, field.Class) {
					found = true
					break
				}
			}
			if !found {
				c.errorf(src.Pos(), "task %s: no output of task %s carries object %s of class %s", t.Name, srcTask.Name, src.Object, field.Class)
				return nil
			}
		}
	}
	return out
}

func condOf(c ast.SourceCond) core.SourceCond {
	switch c {
	case ast.CondInput:
		return core.CondInput
	case ast.CondOutput:
		return core.CondOutput
	default:
		return core.CondNone
	}
}
