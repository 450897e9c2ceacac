package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/workload"
)

// The tests in this file pin the dependency-indexed dirty-set scheduler
// to the full-rescan reference strategy (engine.UseFullRescan): identical
// run-state trajectories on deterministic workloads, and sub-quadratic
// evaluator work asserted through the scan counter.

// schedOutcome captures everything observable about one execution.
type schedOutcome struct {
	result engine.Result
	// traces maps each task path to its ordered event signature; global
	// event order is timing-dependent for parallel workloads, per-task
	// order is not.
	traces map[string][]string
	rows   []engine.TaskStatus
	scans  int64
}

// runSched executes one generated workload to completion under the
// dirty-set scheduler, or under the full-rescan reference if fullRescan.
func runSched(t *testing.T, name, src string, fullRescan bool) schedOutcome {
	t.Helper()
	r := newRig(t, engine.Config{Ephemeral: true})
	if fullRescan {
		engine.UseFullRescan(r.eng)
	}
	workload.Bind(r.impls)
	schema := workload.MustCompile(name, src)
	inst, err := r.eng.Instantiate(name, schema, "")
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
	rows, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[string][]string)
	for _, e := range inst.Events() {
		sig := fmt.Sprintf("%s output=%s set=%s iter=%d attempt=%d", e.Kind, e.Output, e.InputSet, e.Iteration, e.Attempt)
		traces[e.Task] = append(traces[e.Task], sig)
	}
	scans := inst.Scans()
	inst.Stop()
	return schedOutcome{result: res, traces: traces, rows: rows, scans: scans}
}

// diffOutcomes fails the test unless both schedulers produced the same
// run-state trajectory.
func diffOutcomes(t *testing.T, dirty, full schedOutcome) {
	t.Helper()
	if dirty.result.Output != full.result.Output || dirty.result.State != full.result.State {
		t.Fatalf("result diverged: dirty-set %+v, full-rescan %+v", dirty.result, full.result)
	}
	if len(dirty.traces) != len(full.traces) {
		t.Fatalf("traced task sets diverged: %d vs %d", len(dirty.traces), len(full.traces))
	}
	for task, want := range full.traces {
		got := dirty.traces[task]
		if len(got) != len(want) {
			t.Fatalf("%q: %d events under dirty-set, %d under full-rescan\n got: %v\nwant: %v", task, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q event %d diverged:\n got: %s\nwant: %s", task, i, got[i], want[i])
			}
		}
	}
	if len(dirty.rows) != len(full.rows) {
		t.Fatalf("snapshots diverged: %d vs %d rows", len(dirty.rows), len(full.rows))
	}
	for i := range full.rows {
		d, f := dirty.rows[i], full.rows[i]
		if d.Path != f.Path || d.State != f.State || d.ChosenSet != f.ChosenSet ||
			d.Attempt != f.Attempt || d.Iteration != f.Iteration || len(d.Outputs) != len(f.Outputs) {
			t.Fatalf("snapshot row %d diverged:\n got: %+v\nwant: %+v", i, d, f)
		}
	}
}

// TestDifferentialDirtySetVsFullRescan runs deterministic workloads under
// both schedulers (the dirty-set instance additionally carries the
// in-situ fixed-point oracle via newRig) and requires identical
// trajectories, each ending in the workload's single outcome.
func TestDifferentialDirtySetVsFullRescan(t *testing.T) {
	cases := []struct{ name, src string }{
		{"chain", workload.Chain(12)},
		{"diamond", workload.Diamond(6)},
		{"fanin", workload.FanIn(8)},
		{"nested", workload.Nested(3, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dirty := runSched(t, tc.name+"-dirty", tc.src, false)
			full := runSched(t, tc.name+"-full", tc.src, true)
			diffOutcomes(t, dirty, full)
			if dirty.result.Output != "done" {
				t.Fatalf("outcome %q, want done", dirty.result.Output)
			}
		})
	}
}

// cyclerScript exercises the full Fig. 3 transition set: marks, repeat
// outcomes with self-feedback, and a retried system failure.
const cyclerScript = `
class D;

taskclass Cycler
{
    inputs { input main { seed of class D } };
    outputs
    {
        outcome finished { out of class D };
        repeat outcome again { counter of class D };
        mark progress { snapshot of class D }
    }
};

taskclass App
{
    inputs { input main { seed of class D } };
    outputs { outcome finished { out of class D } }
};

compoundtask app of taskclass App
{
    task cycler of taskclass Cycler
    {
        implementation { "code" is "cycler" };
        inputs
        {
            input main
            {
                inputobject seed from
                {
                    counter of task cycler if output again;
                    seed of task app if input main
                }
            }
        }
    };
    outputs { outcome finished { outputobject out from { out of task cycler if output finished } } }
};
`

// TestDifferentialRepeatMarkRetry compares trajectories through marks,
// repeats and automatic retries — the transitions beyond plain dataflow
// that the dirty worklist must also propagate.
func TestDifferentialRepeatMarkRetry(t *testing.T) {
	run := func(fullRescan bool) schedOutcome {
		r := newRig(t, engine.Config{MaxRetries: 1})
		if fullRescan {
			engine.UseFullRescan(r.eng)
		}
		r.impls.Bind("cycler", func(ctx registry.Context) (registry.Result, error) {
			n := ctx.Inputs()["seed"].Data.(int)
			if n == 1 && ctx.Attempt() == 0 {
				return registry.Result{}, errors.New("transient")
			}
			if err := ctx.Mark("progress", registry.Objects{"snapshot": {Class: "D", Data: n}}); err != nil {
				return registry.Result{}, err
			}
			if n < 3 {
				return registry.Result{Output: "again", Objects: registry.Objects{"counter": {Class: "D", Data: n + 1}}}, nil
			}
			return registry.Result{Output: "finished", Objects: registry.Objects{"out": {Class: "D", Data: n}}}, nil
		})
		inst := r.run(t, cyclerScript, fmt.Sprintf("cycler-rescan=%v", fullRescan), "main", registry.Objects{"seed": val("D", 0)})
		res := waitResult(t, inst)
		// Wait returns when the terminal status is set, which the
		// controller does before it emits instance-completed. Snapshot
		// round-trips through the controller, so the drain that settled
		// the instance has emitted everything before Events is read.
		rows, err := inst.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		traces := make(map[string][]string)
		for _, e := range inst.Events() {
			traces[e.Task] = append(traces[e.Task], fmt.Sprintf("%s output=%s iter=%d attempt=%d", e.Kind, e.Output, e.Iteration, e.Attempt))
		}
		return schedOutcome{result: res, traces: traces, rows: rows}
	}
	diffOutcomes(t, run(false), run(true))
}

// TestDirtySetScansLinear asserts the asymptotic win of the index on a
// deep chain: total evaluator scans stay linear in the task count, while
// the full-rescan baseline performs quadratic work.
func TestDirtySetScansLinear(t *testing.T) {
	const n = 48
	src := workload.Chain(n)
	dirty := runSched(t, "scans-dirty", src, false)
	full := runSched(t, "scans-full", src, true)
	if dirty.scans > 8*n {
		t.Errorf("dirty-set scheduler examined %d runs on a %d-task chain, want <= %d (linear)", dirty.scans, n, 8*n)
	}
	if full.scans < n*n/2 {
		t.Errorf("full-rescan baseline examined %d runs, expected quadratic >= %d (is the oracle still a full rescan?)", full.scans, n*n/2)
	}
	if full.scans < 5*dirty.scans {
		t.Errorf("expected >= 5x scan reduction, got full=%d dirty=%d", full.scans, dirty.scans)
	}
}

// TestCompletionReexaminesOnlyConsumers gates every stage of a chain and
// measures the evaluator scans attributable to each single completion
// event: only the completed task's indexed consumers may be re-examined,
// independent of instance size.
func TestCompletionReexaminesOnlyConsumers(t *testing.T) {
	const n = 32
	r := newRig(t, engine.Config{Ephemeral: true})
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	schema := workload.MustCompile("gated", workload.Chain(n))
	inst, err := r.eng.Instantiate("gated", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sync := func(task string) {
		t.Helper()
		if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
			return e.Kind == engine.EventTaskStarted && e.Task == task
		}); err != nil {
			t.Fatal(err)
		}
		// Snapshot round-trips through the controller, guaranteeing the
		// drain that emitted the event has finished before Scans is read.
		if _, err := inst.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	sync("app/t1")
	prev := inst.Scans()
	for i := 1; i < n; i++ {
		gate <- struct{}{} // let t<i> complete
		sync(fmt.Sprintf("app/t%d", i+1))
		scans := inst.Scans()
		if delta := scans - prev; delta > 4 {
			t.Fatalf("completion of t%d re-examined %d runs, want <= 4 (indexed consumers only)", i, delta)
		}
		prev = scans
	}
	gate <- struct{}{} // final stage
	if _, err := inst.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	inst.Stop()
}
