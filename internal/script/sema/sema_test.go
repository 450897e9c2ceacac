package sema_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script/parser"
	"repro/internal/script/sema"
	"repro/internal/scripts"
)

func compile(t *testing.T, name, src string) *core.Schema {
	t.Helper()
	schema, err := sema.CompileSource(name, []byte(src))
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return schema
}

func TestPaperScriptsCompile(t *testing.T) {
	for name, src := range scripts.All {
		t.Run(name, func(t *testing.T) {
			schema := compile(t, name, src)
			if len(schema.Tasks) == 0 {
				t.Fatalf("schema %s has no top-level tasks", name)
			}
		})
	}
}

func TestProcessOrderStructure(t *testing.T) {
	schema := compile(t, "process_order", scripts.ProcessOrder)
	root, err := schema.Root("")
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "processOrderApplication" || !root.Compound {
		t.Fatalf("root = %q compound=%v, want processOrderApplication compound", root.Name, root.Compound)
	}
	if got := len(root.Constituents); got != 4 {
		t.Fatalf("constituents = %d, want 4", got)
	}
	dispatch := root.Constituent("dispatch")
	if dispatch == nil {
		t.Fatal("no dispatch constituent")
	}
	if !dispatch.Atomic() {
		t.Error("dispatch must be atomic (declares abort outcome dispatchFailed)")
	}
	if dispatch.Code() != "refDispatch" {
		t.Errorf("dispatch code = %q, want refDispatch", dispatch.Code())
	}
	// dispatch waits on paymentAuthorisation (notification) and checkStock
	// (dataflow): two edges into dispatch.
	main := dispatch.InputSet("main")
	if main == nil {
		t.Fatal("dispatch has no input set main")
	}
	if len(main.Notifications) != 1 || len(main.Objects) != 1 {
		t.Fatalf("dispatch main: %d notifications, %d objects; want 1 and 1", len(main.Notifications), len(main.Objects))
	}
	if src := main.Objects[0].Sources[0]; src.Task.Name != "checkStock" || src.CondName != "stockAvailable" {
		t.Errorf("dispatch stockInfo source = %v, want checkStock/stockAvailable", src)
	}
}

func TestBusinessTripStructure(t *testing.T) {
	schema := compile(t, "business_trip", scripts.BusinessTrip)
	trip := schema.Task("tripReservation")
	if trip == nil {
		t.Fatal("no tripReservation")
	}
	br := trip.Constituent("businessReservation")
	if br == nil || !br.Compound {
		t.Fatal("no compound businessReservation")
	}
	// Repeat feedback: BR's input main has two alternatives, the second
	// sourced from its own repeat outcome.
	main := br.InputSet("main")
	if main == nil || len(main.Objects) != 1 {
		t.Fatal("businessReservation must bind input main with one object dep")
	}
	srcs := main.Objects[0].Sources
	if len(srcs) != 2 {
		t.Fatalf("user has %d sources, want 2", len(srcs))
	}
	if srcs[0].Task.Name != "tripReservation" || srcs[0].Cond != core.CondInput {
		t.Errorf("first alternative = %v, want tripReservation if input main", srcs[0])
	}
	if srcs[1].Task != br || srcs[1].CondName != "retry" {
		t.Errorf("second alternative = %v, want self repeat feedback", srcs[1])
	}
	// Mark output on the trip: toPay.
	toPay := trip.OutputBinding("toPay")
	if toPay == nil || toPay.Output.Kind != core.Mark {
		t.Fatal("tripReservation must map mark output toPay")
	}
	// Nested compound checkFlightReservation with three airline queries.
	cfr := br.Constituent("checkFlightReservation")
	if cfr == nil || len(cfr.Constituents) != 3 {
		t.Fatal("checkFlightReservation must contain three airline queries")
	}
	if got := cfr.Path(); got != "tripReservation/businessReservation/checkFlightReservation" {
		t.Errorf("path = %q", got)
	}
}

func TestTemplateExpansion(t *testing.T) {
	schema := compile(t, "payment_template", scripts.PaymentTemplate)
	app := schema.Task("app")
	if app == nil {
		t.Fatal("no app task")
	}
	ca := app.Constituent("captureA")
	cb := app.Constituent("captureB")
	if ca == nil || cb == nil {
		t.Fatalf("expected expanded template instances, have %v", app.Constituents)
	}
	if ca.Code() != "refCapture" {
		t.Errorf("captureA code = %q, want refCapture from template body", ca.Code())
	}
	src := ca.InputSet("main").Objects[0].Sources[0]
	if src.Task.Name != "authA" {
		t.Errorf("captureA source task = %s, want authA (substituted parameter)", src.Task.Name)
	}
	src = cb.InputSet("main").Objects[0].Sources[0]
	if src.Task.Name != "authB" {
		t.Errorf("captureB source task = %s, want authB", src.Task.Name)
	}
}

func TestTemplateArgumentMismatch(t *testing.T) {
	src := scripts.PaymentTemplate
	bad := strings.Replace(src, "captureTemplate(authA)", "captureTemplate(authA, authB)", 1)
	if _, err := sema.CompileSource("bad", []byte(bad)); err == nil {
		t.Fatal("expected arity error for template instantiation")
	}
}

// mustParseErrFree parses and checks src, returning whichever stage's
// diagnostics fire first (some structural rules are enforced by the
// parser, e.g. constituents inside plain tasks).
func mustParseErrFree(t *testing.T, src string) error {
	t.Helper()
	s, err := parser.Parse("test", []byte(src))
	if err != nil {
		return err
	}
	_, err = sema.Compile(s)
	return err
}

const semaPrelude = `
class A;
class B;
taskclass Src
{
    inputs { input main { a of class A } };
    outputs { outcome ok { a of class A }; outcome alt { b of class B } }
};
taskclass Dst
{
    inputs { input main { x of class A } };
    outputs { outcome ok { } }
};
taskclass Wrap
{
    inputs { input main { a of class A } };
    outputs { outcome ok { } }
};
`

func TestSemaDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring expected in the error
	}{
		{
			name: "undeclared class",
			src:  `class A; taskclass T { inputs { input main { x of class Nope } }; outputs { outcome ok { } } };`,
			want: "undeclared class Nope",
		},
		{
			name: "duplicate class",
			src:  `class A; class A;`,
			want: "duplicate class A",
		},
		{
			name: "duplicate taskclass",
			src:  `class A; taskclass T { inputs { } ; outputs { } }; taskclass T { inputs { }; outputs { } };`,
			want: "duplicate taskclass T",
		},
		{
			name: "atomic with mark",
			src: `class A;
taskclass T
{
    inputs { input main { a of class A } };
    outputs { abort outcome ab { }; mark m { a of class A }; outcome ok { } }
};`,
			want: "cannot declare mark",
		},
		{
			name: "atomic with location",
			src: `class A;
taskclass T
{
    inputs { input main { a of class A } };
    outputs { abort outcome ab { }; outcome ok { } }
};
taskclass W
{
    inputs { input main { a of class A } };
    outputs { outcome ok { } }
};
compoundtask w of taskclass W
{
    task remote of taskclass T
    {
        implementation { "code" is "c"; "location" is "workers" };
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    outputs { outcome ok { notification from { task remote if output ok } } }
};`,
			want: "task remote: taskclass T is atomic",
		},
		{
			name: "unknown taskclass",
			src:  `task t of taskclass Nope { inputs { } };`,
			want: "undeclared taskclass Nope",
		},
		{
			name: "unknown source task",
			src: semaPrelude + `
compoundtask w of taskclass Wrap
{
    task d of taskclass Dst
    {
        inputs { input main { inputobject x from { a of task ghost if output ok } } }
    };
    outputs { outcome ok { notification from { task d if output ok } } }
};`,
			want: "unknown source task ghost",
		},
		{
			name: "class mismatch",
			src: semaPrelude + `
compoundtask w of taskclass Wrap
{
    task s of taskclass Src
    {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    task d of taskclass Dst
    {
        inputs { input main { inputobject x from { b of task s if output alt } } }
    };
    outputs { outcome ok { notification from { task d if output ok } } }
};`,
			want: "class mismatch",
		},
		{
			name: "missing object dependency",
			src: semaPrelude + `
compoundtask w of taskclass Wrap
{
    task d of taskclass Dst
    {
        inputs { input main { notification from { task w if input main } } }
    };
    outputs { outcome ok { notification from { task d if output ok } } }
};`,
			want: "missing dependency for object x",
		},
		{
			name: "repeat outcome of other task",
			src: `class A;
taskclass R
{
    inputs { input main { a of class A } };
    outputs { outcome ok { }; repeat outcome again { a of class A } }
};
taskclass D
{
    inputs { input main { x of class A } };
    outputs { outcome ok { } }
};
taskclass W
{
    inputs { input main { a of class A } };
    outputs { outcome ok { } }
};
compoundtask w of taskclass W
{
    task r of taskclass R
    {
        inputs { input main { inputobject a from { a of task w if input main } } }
    };
    task d of taskclass D
    {
        inputs { input main { inputobject x from { a of task r if output again } } }
    };
    outputs { outcome ok { notification from { task d if output ok } } }
};`,
			want: "not usable by other tasks",
		},
		{
			name: "cycle",
			src: semaPrelude + `
compoundtask w of taskclass Wrap
{
    task s1 of taskclass Dst
    {
        inputs { input main { inputobject x from { a of task s2 if output ok } } }
    };
    task s2 of taskclass Src
    {
        inputs { input main { inputobject a from { a of task w if input main }; notification from { task s1 if output ok } } }
    };
    outputs { outcome ok { notification from { task s1 if output ok } } }
};`,
			want: "cycle",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mustParseErrFree(t, tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSchemaStats(t *testing.T) {
	schema := compile(t, "business_trip", scripts.BusinessTrip)
	st := schema.Stats()
	if st.Tasks != 11 { // trip + BR + DA + CFR + 3 queries + FR + HR + FC + PT
		t.Errorf("tasks = %d, want 11", st.Tasks)
	}
	if st.CompoundTasks != 3 {
		t.Errorf("compound tasks = %d, want 3", st.CompoundTasks)
	}
	if st.MaxDepth != 4 { // trip / BR / CFR / queryAirlineN
		t.Errorf("max depth = %d, want 4", st.MaxDepth)
	}
}

func TestDependentsLocality(t *testing.T) {
	schema := compile(t, "process_order", scripts.ProcessOrder)
	root := schema.Task("processOrderApplication")
	pa := root.Constituent("paymentAuthorisation")
	deps := schema.Dependents(pa)
	// dispatch (notification), paymentCapture (dataflow) and the root
	// compound (orderCancelled notification) depend on paymentAuthorisation.
	if len(deps) != 3 {
		names := make([]string, len(deps))
		for i, d := range deps {
			names[i] = d.Path()
		}
		t.Fatalf("dependents of paymentAuthorisation = %v, want 3", names)
	}
}
