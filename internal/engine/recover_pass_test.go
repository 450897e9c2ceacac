package engine_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/printer"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/timers"
	"repro/internal/txn"
	"repro/internal/workload"
)

// addT9 adds a stage after t1 to a Chain workload's root compound.
var addT9 = &engine.AddTaskOp{ScopePath: "app", Fragment: `
task t9 of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs { input main { inputobject in from { in of task t1 if input main } } }
}`}

// countingCompiler is sema.CompileSource counting its calls.
func countingCompiler(n *int) engine.SchemaCompiler {
	return func(name string, src []byte) (*core.Schema, error) {
		*n++
		return sema.CompileSource(name, src)
	}
}

// TestRecoverMatchingCompilesOncePerSchema pins the per-pass schema
// sharing of recovery: a pass compiles each distinct (name, source)
// once, instances of one schema share it, and a reconfigured instance —
// at recovery or live afterwards — works on its own copy, so its
// siblings' schema is never mutated.
func TestRecoverMatchingCompilesOncePerSchema(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		srcA, srcB := workload.Chain(2), workload.Chain(3)
		r := newRig(t, engine.Config{})
		for _, id := range []string{"a1", "a2", "a3", "a-re", "b1", "b2"} {
			name, src := "a.wf", srcA
			if id[0] == 'b' {
				name, src = "b.wf", srcB
			}
			inst, err := r.eng.Instantiate(id, workload.MustCompile(name, src), "")
			if err != nil {
				t.Fatal(err)
			}
			if id == "a-re" {
				if err := inst.Reconfigure(addT9); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.eng.Close()

		r2 := rigOver(t, r)
		workload.Bind(r2.impls)
		compiles := 0
		ids, err := r2.eng.RecoverMatching(countingCompiler(&compiles), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 6 {
			t.Fatalf("recovered %v, want 6 instances", ids)
		}
		if compiles != 2 {
			t.Fatalf("recovery compiled %d times for 2 distinct schemas", compiles)
		}

		// The unreconfigured instances' schema is what a fresh compile
		// gives, untouched by the sibling's reconfiguration.
		wantDOT := map[byte]string{
			'a': printer.DOT(workload.MustCompile("a.wf", srcA)),
			'b': printer.DOT(workload.MustCompile("b.wf", srcB)),
		}
		instance := func(id string) *engine.Instance {
			t.Helper()
			inst, err := r2.eng.Instance(id)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}
		for _, id := range []string{"a1", "a2", "a3", "b1", "b2"} {
			if got := printer.DOT(instance(id).Schema()); got != wantDOT[id[0]] {
				t.Fatalf("%s: recovered schema differs from a fresh compile:\n%s\nwant:\n%s", id, got, wantDOT[id[0]])
			}
		}

		// The reconfigured sibling kept its added task, and it runs.
		re := instance("a-re")
		if re.Schema().Lookup("app/t9") == nil {
			t.Fatal("a-re lost its reconfiguration-added task")
		}
		if err := re.Start("main", workload.Seed()); err != nil {
			t.Fatal(err)
		}
		if res := waitResult(t, re); res.Output != "done" {
			t.Fatalf("a-re result: %+v", res)
		}
		// t9 is not on the root's output path, so the root may complete
		// before t9 does; it must have started.
		ran := false
		for _, ev := range eventsByKind(re.Events(), engine.EventTaskStarted) {
			ran = ran || ev.Task == "app/t9"
		}
		if !ran {
			t.Fatalf("reconfiguration-added task did not run: %v", re.Events())
		}

		// A live reconfiguration of one recovered instance leaves the
		// siblings sharing its compiled schema unchanged.
		if err := instance("a1").Reconfigure(addT9); err != nil {
			t.Fatal(err)
		}
		if instance("a1").Schema().Lookup("app/t9") == nil {
			t.Fatal("a1: live reconfiguration not applied")
		}
		for _, id := range []string{"a2", "a3"} {
			if got := printer.DOT(instance(id).Schema()); got != wantDOT['a'] {
				t.Fatalf("%s: schema changed by a sibling's live reconfiguration:\n%s", id, got)
			}
		}
	})

	t.Run("distinct", func(t *testing.T) {
		r := newRig(t, engine.Config{})
		const n = 4
		for k := 0; k < n; k++ {
			id := fmt.Sprintf("d%d", k)
			if _, err := r.eng.Instantiate(id, workload.MustCompile(id+".wf", workload.Chain(k+2)), ""); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.Close()

		r2 := rigOver(t, r)
		compiles := 0
		ids, err := r2.eng.RecoverMatching(countingCompiler(&compiles), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != n || compiles != n {
			t.Fatalf("recovered %v with %d compiles, want %d of each", ids, compiles, n)
		}
	})
}

// listCountingStore counts List calls on a MemStore (batches and reads
// pass straight through).
type listCountingStore struct {
	*store.MemStore
	lists int
}

func (s *listCountingStore) List(prefix store.ID) ([]store.ID, error) {
	s.lists++
	return s.MemStore.List(prefix)
}

// TestRecoverMatchingListsOnce pins the per-pass store listing: a
// recovery pass over instances with pending delays lists the store
// once, not once plus twice per instance, a single Recover lists once,
// and every delay still re-arms at its original absolute deadline.
func TestRecoverMatchingListsOnce(t *testing.T) {
	const n = 4
	clock := timers.NewFakeClock(epoch)
	st := &listCountingStore{MemStore: store.NewMemStore()}
	newEngine := func() *engine.Engine {
		t.Helper()
		preg := persist.NewRegistry(st, txn.NewManager(st), nil)
		if _, err := preg.Recover(); err != nil {
			t.Fatal(err)
		}
		eng := engine.New(preg, registry.New(), engine.Config{Clock: clock, VerifyScheduler: true})
		t.Cleanup(eng.Close)
		return eng
	}
	deadline := epoch.Add(5 * time.Second)
	checkArmed := func(inst *engine.Instance) {
		t.Helper()
		if armed := waitEventKind(t, inst, engine.EventTimerArmed); !armed.Deadline.Equal(deadline) {
			t.Fatalf("%s: armed at %v, want the original %v", inst.ID(), armed.Deadline, deadline)
		}
	}

	eng1 := newEngine()
	schema := sema.MustCompileSource("delay.wf", []byte(delayScript))
	var want []string
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("d%d", k)
		want = append(want, id)
		inst, err := eng1.Instantiate(id, schema, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", registry.Objects{"d": val("D", id)}); err != nil {
			t.Fatal(err)
		}
		checkArmed(inst)
	}
	clock.Advance(2 * time.Second)
	eng1.Close() // the crash

	eng2 := newEngine()
	st.lists = 0
	ids, err := eng2.RecoverMatching(sema.CompileSource, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", ids, want)
	}
	if st.lists != 1 {
		t.Fatalf("recovery pass over %d instances listed the store %d times, want 1", n, st.lists)
	}
	for _, id := range ids {
		inst, err := eng2.Instance(id)
		if err != nil {
			t.Fatal(err)
		}
		checkArmed(inst)
	}
	eng2.Close() // crash again, before any delay fires

	eng3 := newEngine()
	st.lists = 0
	inst, err := eng3.Recover("d0", sema.CompileSource)
	if err != nil {
		t.Fatal(err)
	}
	if st.lists != 1 {
		t.Fatalf("single Recover listed the store %d times, want 1", st.lists)
	}
	checkArmed(inst)
	clock.Advance(3 * time.Second)
	if res := waitResult(t, inst); res.Output != "done" || res.Objects["d"].Data != "d0" {
		t.Fatalf("d0 result = %+v", res)
	}
	if fired := len(eventsByKind(inst.Events(), engine.EventTimerFired)); fired != 1 {
		t.Fatalf("d0 fired %d times, want exactly once", fired)
	}
}
