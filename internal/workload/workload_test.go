package workload_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline/eca"
	"repro/internal/baseline/petri"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

func newEngine(t *testing.T) (*engine.Engine, *registry.Registry) {
	t.Helper()
	st := store.NewMemStore()
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	impls := registry.New()
	eng := engine.New(preg, impls, engine.Config{})
	t.Cleanup(eng.Close)
	return eng, impls
}

func runToCompletion(t *testing.T, name, src string) engine.Result {
	t.Helper()
	eng, impls := newEngine(t)
	workload.Bind(impls)
	schema := workload.MustCompile(name, src)
	inst, err := eng.Instantiate(name, schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return res
}

func TestGeneratorsCompileAndRun(t *testing.T) {
	cases := map[string]string{
		"chain":  workload.Chain(10),
		"diam":   workload.Diamond(8),
		"fan":    workload.FanOut(5),
		"fanin":  workload.FanIn(6),
		"dag":    workload.RandomDAG(20, 2, 42),
		"nested": workload.Nested(3, 2),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			res := runToCompletion(t, name, src)
			if res.Output != "done" {
				t.Fatalf("outcome = %q, want done", res.Output)
			}
			if res.Objects["out"].Data.(string) != "seed" {
				t.Fatalf("payload = %v, want pass-through seed", res.Objects["out"].Data)
			}
		})
	}
}

// TestTemporalGeneratorsCompileAndRun runs the temporal workloads end
// to end: TimerChain entirely on the timing wheel (no implementation
// code at all), DeadlineFanOut arming and disarming one wheel entry per
// activation.
func TestTemporalGeneratorsCompileAndRun(t *testing.T) {
	run := func(t *testing.T, name, src string) engine.Result {
		eng, impls := newEngine(t)
		impls.Bind("work", func(ctx registry.Context) (registry.Result, error) {
			return registry.Result{Output: "done", Objects: registry.Objects{"d": ctx.Inputs()["d"]}}, nil
		})
		schema := workload.MustCompile(name, src)
		inst, err := eng.Instantiate(name, schema, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", workload.TimerSeed()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := inst.Wait(ctx)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		return res
	}
	t.Run("timerchain", func(t *testing.T) {
		res := run(t, "timerchain", workload.TimerChain(5, time.Millisecond))
		if res.Output != "done" || res.Objects["d"].Data.(string) != "seed" {
			t.Fatalf("result = %+v, want done passing the seed through", res)
		}
	})
	t.Run("deadlinefanout", func(t *testing.T) {
		res := run(t, "deadlinefanout", workload.DeadlineFanOut(6, time.Second, "work"))
		if res.Output != "done" {
			t.Fatalf("outcome = %q, want done", res.Output)
		}
	})
}

// TestChainCodeEchoesThroughEveryStage runs ChainCode in-process on
// the builtin codes and located on an echoing invoker. Builtins echo
// inputs into same-named outputs, so every stage must carry one object
// name through; a located stage must reach the invoker with its
// location and code.
func TestChainCodeEchoesThroughEveryStage(t *testing.T) {
	run := func(t *testing.T, location string, cfg engine.Config) engine.Result {
		st := store.NewMemStore()
		impls := registry.New()
		impls.BindFallback(registry.Builtin)
		eng := engine.New(persist.NewRegistry(st, txn.NewManager(st), nil), impls, cfg)
		t.Cleanup(eng.Close)
		inst, err := eng.Instantiate("codechain", workload.MustCompile("codechain", workload.ChainCode(3, "fixed:done", location)), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := inst.Wait(ctx)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
			t.Fatalf("result = %+v, want done passing the seed through", res)
		}
		return res
	}
	t.Run("in-process", func(t *testing.T) {
		run(t, "", engine.Config{})
	})
	t.Run("located", func(t *testing.T) {
		var calls atomic.Int64
		run(t, "pool", engine.Config{RemoteInvoker: func(req engine.RemoteRequest) (registry.Result, error) {
			if req.Location != "pool" || req.Code != "fixed:done" {
				return registry.Result{}, fmt.Errorf("dispatched %q at %q, want fixed:done at pool", req.Code, req.Location)
			}
			calls.Add(1)
			return registry.Result{Output: "done", Objects: registry.Objects{"d": req.Inputs["d"]}}, nil
		}})
		if calls.Load() != 3 {
			t.Fatalf("%d remote calls, want one per stage (3)", calls.Load())
		}
	})
}

func TestGeneratorsDeterministic(t *testing.T) {
	if workload.RandomDAG(15, 1, 7) != workload.RandomDAG(15, 1, 7) {
		t.Error("RandomDAG must be deterministic for a fixed seed")
	}
	if workload.Chain(5) != workload.Chain(5) {
		t.Error("Chain must be deterministic")
	}
}

func TestBaselinesScheduleSameTasks(t *testing.T) {
	// Both baselines must start every task of a workload exactly as the
	// engine does (all-success oracle, acyclic workloads).
	for _, n := range []int{3, 10, 25} {
		src := workload.Chain(n)
		schema := workload.MustCompile(fmt.Sprintf("chain%d", n), src)
		root, err := schema.Root("")
		if err != nil {
			t.Fatal(err)
		}

		rules, tasks := eca.Compile(schema, root)
		ecaEng := eca.NewEngine(rules, tasks, workload.Oracle())
		ecaStats := ecaEng.Run(eca.SeedFacts(root))
		// The root compound is seeded as started, so constituents (n
		// stages) are started by rules.
		if ecaStats.TasksStarted != n {
			t.Errorf("chain %d: ECA started %d tasks, want %d", n, ecaStats.TasksStarted, n)
		}

		net := petri.Compile(schema, root)
		petriStats := net.Run(petri.Seed(root), workload.Oracle())
		if petriStats.TasksStarted != n {
			t.Errorf("chain %d: petri started %d tasks, want %d", n, petriStats.TasksStarted, n)
		}
		// Specification size comparison (Section 6): the rule and net
		// encodings are strictly larger than the structural script's
		// dependency count.
		stats := schema.Stats()
		if ecaStats.Rules <= stats.Sources {
			t.Errorf("chain %d: ECA rules = %d, expected more than %d sources", n, ecaStats.Rules, stats.Sources)
		}
		if petriStats.Transitions <= stats.Sources {
			t.Errorf("chain %d: petri transitions = %d, expected more than %d sources", n, petriStats.Transitions, stats.Sources)
		}
	}
}

func TestBaselinesOnPaperDiamond(t *testing.T) {
	src := workload.Diamond(2)
	schema := workload.MustCompile("diamond2", src)
	root, _ := schema.Root("")

	rules, tasks := eca.Compile(schema, root)
	st := eca.NewEngine(rules, tasks, workload.Oracle()).Run(eca.SeedFacts(root))
	// head + 2 branches + 1 join.
	if st.TasksStarted != 4 {
		t.Errorf("ECA started %d, want 4", st.TasksStarted)
	}
	net := petri.Compile(schema, root)
	ps := net.Run(petri.Seed(root), workload.Oracle())
	if ps.TasksStarted != 4 {
		t.Errorf("petri started %d, want 4", ps.TasksStarted)
	}
	if ps.Rounds < 3 {
		t.Errorf("petri rounds = %d, want >= 3 (dependency depth)", ps.Rounds)
	}
}

func TestBaselineFailurePath(t *testing.T) {
	// With an oracle that fails the head task, downstream tasks must not
	// start in either baseline.
	src := workload.Diamond(2)
	schema := workload.MustCompile("diamond-fail", src)
	root, _ := schema.Root("")
	oracle := func(path string) string {
		if path == "app/head" {
			return "missing-outcome" // produces nothing
		}
		return "done"
	}
	rules, tasks := eca.Compile(schema, root)
	st := eca.NewEngine(rules, tasks, oracle).Run(eca.SeedFacts(root))
	if st.TasksStarted != 1 {
		t.Errorf("ECA started %d, want only head", st.TasksStarted)
	}
	net := petri.Compile(schema, root)
	ps := net.Run(petri.Seed(root), oracle)
	if ps.TasksStarted != 1 {
		t.Errorf("petri started %d, want only head", ps.TasksStarted)
	}
}
