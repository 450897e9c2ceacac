package engine_test

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The tests in this file guard the allocation diet of the engine's hot
// path: one evaluation plan per schema root, task paths built once, no
// wake-up channel without a waiter, no values map for a join that is not
// ready, one goroutine per activation posting to a reused inbox, history
// and worklist sized from the plan — and an Ephemeral engine that writes
// nothing to its store.

// ephemeralEngine returns an Ephemeral engine over a fresh MemStore with
// the workload bindings, and the store.
func ephemeralEngine(t testing.TB) (*engine.Engine, *store.MemStore) {
	t.Helper()
	st := store.NewMemStore()
	impls := registry.New()
	workload.Bind(impls)
	eng := engine.New(persist.NewRegistry(st, txn.NewManager(st), nil), impls, engine.Config{Ephemeral: true})
	t.Cleanup(eng.Close)
	return eng, st
}

// runOne instantiates, starts, awaits and stops one instance of schema.
func runOne(t testing.TB, eng *engine.Engine, id string, schema *core.Schema) engine.Result {
	t.Helper()
	inst, err := eng.Instantiate(id, schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		t.Fatalf("%s: wait: %v", id, err)
	}
	inst.Stop()
	return res
}

// allocShapes are the guarded shapes: a chain, a diamond and a fan-in.
// ceiling is mallocs per instance: the count measured when the ceiling
// was set (chain 321, diamond 185, fan-in 205 on linux/amd64, go1.24;
// 360, 203 and 221 under -race) plus about 30 % for runtime and
// scheduling noise. The engine before the shared evaluation plan spent
// 684, 403 and 449; the one with a watchdog goroutine and a 64-slot
// completion channel per instance spent 382, 220 and 241.
var allocShapes = []struct {
	name    string
	src     string
	ceiling float64
}{
	{"chain16", workload.Chain(16), 420},
	{"diamond4", workload.Diamond(4), 240},
	{"fanin8", workload.FanIn(8), 270},
}

// TestEphemeralInstanceAllocs runs each shape to completion on an
// Ephemeral engine and bounds the mallocs one instance costs.
func TestEphemeralInstanceAllocs(t *testing.T) {
	const n = 200
	for _, sh := range allocShapes {
		t.Run(sh.name, func(t *testing.T) {
			eng, _ := ephemeralEngine(t)
			schema := workload.MustCompile(sh.name, sh.src)
			for i := 0; i < 20; i++ { // warm the pools and the plan
				runOne(t, eng, "warm-"+strconv.Itoa(i), schema)
			}
			ids := make([]string, n)
			for i := range ids {
				ids[i] = "i-" + strconv.Itoa(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, id := range ids {
				runOne(t, eng, id, schema)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%s: %.0f mallocs per instance (ceiling %.0f)", sh.name, per, sh.ceiling)
			if per > sh.ceiling {
				t.Errorf("%s: %.0f mallocs per instance, ceiling %.0f", sh.name, per, sh.ceiling)
			}
		})
	}
}

// TestTaskPathDoesNotAllocate: Path builds its string once; every later
// call, however deep the task, returns it without allocating.
func TestTaskPathDoesNotAllocate(t *testing.T) {
	schema := workload.MustCompile("nested", workload.Nested(3, 2))
	tasks := schema.AllTasks()
	deepest := tasks[len(tasks)-1]
	first := deepest.Path()
	if allocs := testing.AllocsPerRun(100, func() {
		if deepest.Path() != first {
			t.Fatal("path changed between calls")
		}
	}); allocs != 0 {
		t.Errorf("Task.Path allocates %v times per call after the first, want 0", allocs)
	}
}

// TestEphemeralEngineWritesNothing: an Ephemeral engine that has run,
// reconfigured and stopped instances leaves its store empty.
func TestEphemeralEngineWritesNothing(t *testing.T) {
	eng, st := ephemeralEngine(t)
	schema := workload.MustCompile("diamond", workload.Diamond(4))
	for i := 0; i < 8; i++ {
		runOne(t, eng, "e-"+strconv.Itoa(i), schema)
	}
	chain := workload.MustCompile("chain", workload.Chain(2))
	inst, err := eng.Instantiate("re", chain, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Reconfigure(addT9); err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := inst.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	inst.Stop()
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("ephemeral engine left %d keys in its store: %v", len(keys), keys)
	}
}

// BenchmarkEphemeralInstance prices one diamond instance, from
// Instantiate to Stop, on an Ephemeral engine.
func BenchmarkEphemeralInstance(b *testing.B) {
	eng, _ := ephemeralEngine(b)
	schema := workload.MustCompile("diamond", workload.Diamond(4))
	b.ReportAllocs()
	for n := 0; b.Loop(); n++ {
		runOne(b, eng, "b-"+strconv.Itoa(n), schema)
	}
}
