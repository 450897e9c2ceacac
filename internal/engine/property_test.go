package engine_test

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/txn"
	"repro/internal/workload"
)

// rigOver builds a fresh engine stack over an existing rig's store,
// simulating a process restart after a crash.
func rigOver(t *testing.T, old *rig) *rig {
	t.Helper()
	mgr := txn.NewManager(old.st)
	preg := persist.NewRegistry(old.st, mgr, nil)
	impls := registry.New()
	eng := engine.New(preg, impls, engine.Config{})
	engine.VerifyScheduler(eng)
	t.Cleanup(eng.Close)
	return &rig{st: old.st, mgr: mgr, preg: preg, impls: impls, eng: eng}
}

// mustCompileSource adapts sema.CompileSource to engine.SchemaCompiler.
func mustCompileSource(name string, src []byte) (*core.Schema, error) {
	return sema.CompileSource(name, src)
}

// TestPropertyRandomDAGsComplete: any well-formed acyclic workload with
// all-success implementations runs to its single outcome, the payload
// passes through unchanged, and the number of completed constituent
// tasks matches the schema.
func TestPropertyRandomDAGsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(rawN uint8, rawAlts uint8, seed int64) bool {
		n := int(rawN%25) + 2
		alts := int(rawAlts % 3)
		src := workload.RandomDAG(n, alts, seed)
		r := newRig(t, engine.Config{Ephemeral: true})
		workload.Bind(r.impls)
		schema := workload.MustCompile("prop", src)
		inst, err := r.eng.Instantiate(fmt.Sprintf("prop-%d-%d-%d", n, alts, seed), schema, "")
		if err != nil {
			t.Logf("instantiate: %v", err)
			return false
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Logf("start: %v", err)
			return false
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := inst.Wait(ctx)
		if err != nil {
			t.Logf("wait: %v", err)
			return false
		}
		if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
			t.Logf("result: %+v", res)
			return false
		}
		// The compound completes as soon as its output mapping (fed by
		// the sink task) is satisfiable; tasks that are not ancestors of
		// the sink may be left dormant. The sink itself must have
		// completed exactly once, and nothing may have completed twice.
		completions := map[string]int{}
		for _, e := range inst.Events() {
			if e.Kind == engine.EventTaskCompleted {
				completions[e.Task]++
			}
		}
		sink := fmt.Sprintf("app/t%d", n)
		if completions[sink] != 1 {
			t.Logf("sink %s completed %d times", sink, completions[sink])
			return false
		}
		for task, c := range completions {
			if c != 1 {
				t.Logf("%s completed %d times", task, c)
				return false
			}
		}
		inst.Stop()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEventOrderRespectsDependencies: for random DAGs, every
// task's start event comes after the completion events of the sources
// that satisfied it (here: all sources, since all succeed and the start
// needs the first available alternative which is the primary).
func TestPropertyEventOrderRespectsDependencies(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(rawN uint8, seed int64) bool {
		n := int(rawN%15) + 2
		src := workload.Chain(n)
		_ = seed
		r := newRig(t, engine.Config{Ephemeral: true})
		workload.Bind(r.impls)
		schema := workload.MustCompile("prop", src)
		inst, err := r.eng.Instantiate(fmt.Sprintf("order-%d-%d", n, seed), schema, "")
		if err != nil {
			return false
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			return false
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := inst.Wait(ctx); err != nil {
			return false
		}
		started := map[string]int{}
		completed := map[string]int{}
		for _, e := range inst.Events() {
			switch e.Kind {
			case engine.EventTaskStarted:
				started[e.Task] = e.Seq
			case engine.EventTaskCompleted:
				completed[e.Task] = e.Seq
			}
		}
		for i := 2; i <= n; i++ {
			prev := fmt.Sprintf("app/t%d", i-1)
			cur := fmt.Sprintf("app/t%d", i)
			if !(completed[prev] < started[cur]) {
				t.Logf("t%d started (#%d) before t%d completed (#%d)", i, started[cur], i-1, completed[prev])
				return false
			}
		}
		inst.Stop()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDirtySetMatchesFullRescan is the randomized differential
// test of the dirty-set scheduler: the same workload runs under the
// dependency-indexed worklist (with the in-situ fixed-point oracle
// enabled, which panics on any divergence from a full rescan) and under
// the legacy full-rescan baseline, and both must deliver the same
// terminal result with the same single-completion discipline. Per-event
// trajectories of parallel random DAGs are timing-dependent by design
// (dormant non-ancestors of the sink), so exact trace equality is
// asserted separately on deterministic workloads in sched_test.go.
func TestPropertyDirtySetMatchesFullRescan(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	execute := func(id, src string, fullRescan bool) (engine.Result, map[string]int, bool) {
		r := newRig(t, engine.Config{Ephemeral: true})
		if fullRescan {
			engine.UseFullRescan(r.eng)
		}
		workload.Bind(r.impls)
		schema := workload.MustCompile("diff", src)
		inst, err := r.eng.Instantiate(id, schema, "")
		if err != nil {
			t.Logf("instantiate: %v", err)
			return engine.Result{}, nil, false
		}
		if err := inst.Start("main", workload.Seed()); err != nil {
			t.Logf("start: %v", err)
			return engine.Result{}, nil, false
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := inst.Wait(ctx)
		if err != nil {
			t.Logf("wait: %v", err)
			return engine.Result{}, nil, false
		}
		completions := map[string]int{}
		for _, e := range inst.Events() {
			if e.Kind == engine.EventTaskCompleted {
				completions[e.Task]++
			}
		}
		inst.Stop()
		return res, completions, true
	}
	f := func(rawN uint8, rawAlts uint8, seed int64) bool {
		n := int(rawN%20) + 2
		alts := int(rawAlts % 3)
		src := workload.RandomDAG(n, alts, seed)
		id := fmt.Sprintf("diff-%d-%d-%d", n, alts, seed)
		dirtyRes, dirtyDone, ok := execute(id+"-dirty", src, false)
		if !ok {
			return false
		}
		fullRes, fullDone, ok := execute(id+"-full", src, true)
		if !ok {
			return false
		}
		if dirtyRes.Output != fullRes.Output || dirtyRes.State != fullRes.State ||
			dirtyRes.Objects["out"].Data != fullRes.Objects["out"].Data {
			t.Logf("results diverged: dirty-set %+v, full-rescan %+v", dirtyRes, fullRes)
			return false
		}
		sink := fmt.Sprintf("app/t%d", n)
		if dirtyDone[sink] != 1 || fullDone[sink] != 1 {
			t.Logf("sink completions diverged: dirty-set %d, full-rescan %d", dirtyDone[sink], fullDone[sink])
			return false
		}
		for task, c := range dirtyDone {
			if c != 1 {
				t.Logf("dirty-set: %s completed %d times", task, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCrashRecoveryAnyPoint stops the engine after the k-th task
// completion and recovers; the workflow must still complete with the
// correct result, for every k.
func TestPropertyCrashRecoveryAnyPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	const n = 6
	for k := 1; k <= n; k++ {
		k := k
		t.Run(fmt.Sprintf("crashAfter=%d", k), func(t *testing.T) {
			src := workload.Chain(n)
			st := newRig(t, engine.Config{}) // shares a MemStore via rig
			workload.Bind(st.impls)
			schema := workload.MustCompile("crash", src)
			inst, err := st.eng.Instantiate("crash-any", schema, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Start("main", workload.Seed()); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Wait for the k-th stage to complete, then "crash".
			if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
				return e.Kind == engine.EventTaskCompleted && e.Task == fmt.Sprintf("app/t%d", k)
			}); err != nil {
				t.Fatal(err)
			}
			inst.Stop()
			st.eng.Close()

			// Recover over the same store with a fresh engine.
			r2 := rigOver(t, st)
			workload.Bind(r2.impls)
			if _, err := r2.preg.Recover(); err != nil {
				t.Fatal(err)
			}
			inst2, err := r2.eng.Recover("crash-any", mustCompileSource)
			if err != nil {
				t.Fatal(err)
			}
			ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel2()
			res, err := inst2.Wait(ctx2)
			if err != nil {
				t.Fatalf("recovered wait: %v", err)
			}
			if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
				t.Fatalf("recovered result: %+v", res)
			}
			// Stages completed before the crash must not re-run.
			for _, e := range inst2.Events() {
				if e.Kind == engine.EventTaskStarted {
					var idx int
					if _, err := fmt.Sscanf(e.Task, "app/t%d", &idx); err == nil && idx <= k {
						t.Fatalf("t%d re-executed after crash at k=%d", idx, k)
					}
				}
			}
		})
	}
}
