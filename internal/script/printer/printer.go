// Package printer renders parsed workflow scripts back to canonical
// concrete syntax (a formatter, enabling text round-trips) and emits the
// Graphviz DOT form of a compiled schema — the "graphical programming
// environment" view the paper describes, with dotted arcs for
// notification dependencies and solid arcs for dataflow (Fig. 1).
package printer

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/script/ast"
)

// Fprint renders the script in canonical form.
func Fprint(script *ast.Script) string {
	var p printer
	for i, d := range script.Decls {
		if i > 0 {
			p.line("")
		}
		p.decl(d)
	}
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(s string) {
	if s != "" {
		p.b.WriteString(strings.Repeat("    ", p.indent))
		p.b.WriteString(s)
	}
	p.b.WriteByte('\n')
}

func (p *printer) open(s string) {
	p.line(s)
	p.line("{")
	p.indent++
}

func (p *printer) close(trailingSemi bool) {
	p.indent--
	if trailingSemi {
		p.line("};")
	} else {
		p.line("}")
	}
}

func (p *printer) decl(d ast.Decl) {
	switch x := d.(type) {
	case *ast.ClassDecl:
		if x.Super != "" {
			p.line("class " + x.Name + " of class " + x.Super + ";")
		} else {
			p.line("class " + x.Name + ";")
		}
	case *ast.TaskClassDecl:
		p.taskClass(x)
	case *ast.TaskDecl:
		p.task(x, true)
	case *ast.TaskTemplateDecl:
		p.template(x)
	case *ast.TemplateInstDecl:
		p.line(fmt.Sprintf("%s of tasktemplate %s(%s);", x.Name, x.Template, strings.Join(x.Args, ", ")))
	}
}

func (p *printer) taskClass(d *ast.TaskClassDecl) {
	p.open("taskclass " + d.Name)
	p.open("inputs")
	for i, in := range d.Inputs {
		p.open("input " + in.Name)
		for j, f := range in.Objects {
			p.field(f, j == len(in.Objects)-1)
		}
		p.close(i != len(d.Inputs)-1)
	}
	p.close(true)
	p.open("outputs")
	for i, out := range d.Outputs {
		p.open(out.Kind.String() + " " + out.Name)
		for j, f := range out.Objects {
			p.field(f, j == len(out.Objects)-1)
		}
		p.close(i != len(d.Outputs)-1)
	}
	p.close(false)
	p.close(true)
}

func (p *printer) field(f *ast.ObjectField, last bool) {
	s := fmt.Sprintf("%s of class %s", f.Name, f.Class)
	if !last {
		s += ";"
	}
	p.line(s)
}

func (p *printer) task(d *ast.TaskDecl, top bool) {
	kw := "task"
	if d.Compound {
		kw = "compoundtask"
	}
	p.open(fmt.Sprintf("%s %s of taskclass %s", kw, d.Name, d.Class))
	if len(d.Implementation) > 0 {
		pairs := make([]string, len(d.Implementation))
		for i, kv := range d.Implementation {
			pairs[i] = quote(kv.Key) + " is " + quote(kv.Value)
		}
		p.line("implementation { " + strings.Join(pairs, "; ") + " };")
	}
	if len(d.Inputs) > 0 {
		p.open("inputs")
		for i, in := range d.Inputs {
			p.inputSet(in, i == len(d.Inputs)-1)
		}
		p.close(true)
	}
	for _, c := range d.Constituents {
		switch x := c.(type) {
		case *ast.TaskDecl:
			p.task(x, false)
		case *ast.TemplateInstDecl:
			p.line(fmt.Sprintf("%s of tasktemplate %s(%s);", x.Name, x.Template, strings.Join(x.Args, ", ")))
		}
	}
	if len(d.Outputs) > 0 {
		p.open("outputs")
		for i, ob := range d.Outputs {
			p.outputBinding(ob, i == len(d.Outputs)-1)
		}
		p.close(false)
	}
	if top {
		p.close(true)
	} else {
		p.close(true)
	}
}

func (p *printer) inputSet(b *ast.InputSetBinding, last bool) {
	p.open("input " + b.Name)
	for i, dep := range b.Deps {
		p.dep(dep, i == len(b.Deps)-1, "inputobject")
	}
	p.close(!last)
}

func (p *printer) outputBinding(b *ast.OutputBinding, last bool) {
	p.open(b.Kind.String() + " " + b.Name)
	for i, dep := range b.Deps {
		p.dep(dep, i == len(b.Deps)-1, "outputobject")
	}
	p.close(!last)
}

func (p *printer) dep(d ast.InputDep, last bool, objKw string) {
	switch x := d.(type) {
	case *ast.ObjectDep:
		p.open(fmt.Sprintf("%s %s from", objKw, x.Name))
		for i, s := range x.Sources {
			p.source(s, i == len(x.Sources)-1)
		}
		p.close(!last)
	case *ast.NotificationDep:
		p.open("notification from")
		for i, s := range x.Sources {
			p.source(s, i == len(x.Sources)-1)
		}
		p.close(!last)
	}
}

func (p *printer) source(s *ast.SourceRef, last bool) {
	var b strings.Builder
	if s.Object != "" {
		b.WriteString(s.Object)
		b.WriteString(" of ")
	}
	b.WriteString("task ")
	b.WriteString(s.Task)
	switch s.Cond {
	case ast.CondInput:
		b.WriteString(" if input " + s.CondName)
	case ast.CondOutput:
		b.WriteString(" if output " + s.CondName)
	}
	if !last {
		b.WriteString(";")
	}
	p.line(b.String())
}

func (p *printer) template(d *ast.TaskTemplateDecl) {
	kw := "task"
	if d.Body.Compound {
		kw = "compoundtask"
	}
	p.open(fmt.Sprintf("tasktemplate %s %s of taskclass %s", kw, d.Name, d.Body.Class))
	p.line("parameters { " + strings.Join(d.Params, "; ") + " };")
	// Reuse the task body printing by rendering a copy without the header.
	body := *d.Body
	if len(body.Implementation) > 0 {
		pairs := make([]string, len(body.Implementation))
		for i, kv := range body.Implementation {
			pairs[i] = quote(kv.Key) + " is " + quote(kv.Value)
		}
		p.line("implementation { " + strings.Join(pairs, "; ") + " };")
	}
	if len(body.Inputs) > 0 {
		p.open("inputs")
		for i, in := range body.Inputs {
			p.inputSet(in, i == len(body.Inputs)-1)
		}
		p.close(true)
	}
	for _, c := range body.Constituents {
		switch x := c.(type) {
		case *ast.TaskDecl:
			p.task(x, false)
		case *ast.TemplateInstDecl:
			p.line(fmt.Sprintf("%s of tasktemplate %s(%s);", x.Name, x.Template, strings.Join(x.Args, ", ")))
		}
	}
	if len(body.Outputs) > 0 {
		p.open("outputs")
		for i, ob := range body.Outputs {
			p.outputBinding(ob, i == len(body.Outputs)-1)
		}
		p.close(false)
	}
	p.close(true)
}

// DOT renders the compiled schema as a Graphviz digraph: one cluster per
// compound task, solid edges for dataflow dependencies and dotted edges
// for notifications, matching the visual conventions of the paper's
// figures.
func DOT(s *core.Schema) string {
	var b strings.Builder
	b.WriteString("digraph workflow {\n")
	b.WriteString("    rankdir=LR;\n")
	b.WriteString("    node [shape=box, fontname=\"Helvetica\"];\n")
	id := func(t *core.Task) string {
		return `"` + strings.ReplaceAll(t.Path(), `"`, `\"`) + `"`
	}
	var emitTask func(t *core.Task, indent string)
	emitTask = func(t *core.Task, indent string) {
		if t.Compound {
			fmt.Fprintf(&b, "%ssubgraph \"cluster_%s\" {\n", indent, t.Path())
			fmt.Fprintf(&b, "%s    label=%q;\n", indent, t.Name)
			fmt.Fprintf(&b, "%s    style=rounded; color=grey;\n", indent)
			fmt.Fprintf(&b, "%s    %s [label=%q, style=dashed];\n", indent, id(t), t.Name+" (io)")
			for _, c := range t.Constituents {
				emitTask(c, indent+"    ")
			}
			fmt.Fprintf(&b, "%s}\n", indent)
			return
		}
		shape := "box"
		if t.Atomic() {
			shape = "box3d" // double border in the paper's figures
		}
		fmt.Fprintf(&b, "%s%s [label=%q, shape=%s];\n", indent, id(t), t.Name, shape)
	}
	for _, t := range s.Tasks {
		emitTask(t, "    ")
	}
	for _, e := range s.Edges() {
		style := "solid"
		label := e.Object
		if e.Object == "" {
			style = "dotted"
		}
		attrs := fmt.Sprintf("style=%s", style)
		if label != "" {
			attrs += fmt.Sprintf(", label=%q", label)
		}
		if e.AltIndex > 0 {
			attrs += fmt.Sprintf(", color=grey, taillabel=\"alt%d\"", e.AltIndex)
		}
		fmt.Fprintf(&b, "    %s -> %s [%s];\n", id(e.From), id(e.To), attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

// quote renders s as a plain-quoted string literal with exactly the
// escapes the lexer reads back (\" \\ \n \t), writing every other rune
// verbatim. Go's %q would emit \x and \u escapes the lexer rejects.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
