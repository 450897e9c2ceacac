package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestRecoverAfterReconfigureKeepsAddedTask guards the recovery path
// against losing reconfiguration-added tasks: Recover derives the
// evaluation order and dependency index only after re-applying the
// persisted reconfiguration records, so a task added to a running
// instance is still evaluated and listed after a crash.
func TestRecoverAfterReconfigureKeepsAddedTask(t *testing.T) {
	r := newRig(t, engine.Config{})
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	schema := workload.MustCompile("rc", workload.Chain(2))
	inst, err := r.eng.Instantiate("rc", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	// app is executing, t1 blocked on the gate: reconfigure live.
	if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "app", Fragment: `
task t9 of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs { input main { inputobject in from { in of task t1 if input main } } }
}`}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				return
			}
		}
	}()
	if _, err := inst.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rows, _ := inst.Snapshot()
	found := false
	for _, row := range rows {
		if row.Path == "app/t9" {
			found = true
		}
	}
	if !found {
		t.Fatal("t9 missing from live snapshot")
	}
	inst.Stop()
	r.eng.Close()

	r2 := rigOver(t, r)
	workload.Bind(r2.impls)
	if _, err := r2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := r2.eng.Recover("rc", mustCompileSource)
	if err != nil {
		t.Fatal(err)
	}
	rows2, _ := inst2.Snapshot()
	found2 := false
	for _, row := range rows2 {
		t.Logf("row: %+v", row)
		if row.Path == "app/t9" {
			found2 = true
		}
	}
	if !found2 {
		t.Fatal("t9 missing from post-recovery snapshot")
	}
}

// TestRecoverActivatesMissingConstituents guards the other recovery
// hole: a crash can land between a compound's start persisting and its
// constituents' first persists, leaving an Executing compound with no
// member runs on disk. Recovery must re-run constituent activation or
// the instance stalls forever.
func TestRecoverActivatesMissingConstituents(t *testing.T) {
	r := newRig(t, engine.Config{})
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	schema := workload.MustCompile("cc", workload.Chain(2))
	inst, err := r.eng.Instantiate("cc", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// "Crash" while the compound is executing: t1 is blocked on the gate.
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskStarted && e.Task == "app/t1"
	}); err != nil {
		t.Fatal(err)
	}
	inst.Stop()
	r.eng.Close()

	// Simulate the crash window: the compound started (and persisted) but
	// no constituent state ever reached the store.
	b := r.preg.NewBatch()
	for _, path := range []string{"app%2Ft1", "app%2Ft2"} {
		b.Delete(store.ID("inst/cc/run/" + path))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	r2 := rigOver(t, r)
	workload.Bind(r2.impls)
	if _, err := r2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := r2.eng.Recover("cc", mustCompileSource)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	res, err := inst2.Wait(ctx2)
	if err != nil {
		t.Fatalf("recovered instance did not finish (stalled recovery hole): %v", err)
	}
	if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
		t.Fatalf("recovered result: %+v", res)
	}
}

// TestRecoverUnstartedInstanceAwaitsStart guards the takeover window:
// an instance persisted by Instantiate whose Start had not yet been
// applied must come back Waiting. The post-recovery evaluation pass
// must not auto-start the root — roots bind no input sets, so without
// the guard in trySatisfy the root would start with an empty chosen
// set, its constituents (which read "if input main") would never
// become satisfiable, and the client's retried Start would be refused
// as a duplicate. The instance would sit at StatusCreated forever.
func TestRecoverUnstartedInstanceAwaitsStart(t *testing.T) {
	r := newRig(t, engine.Config{})
	workload.Bind(r.impls)
	schema := workload.MustCompile("us", workload.Chain(2))
	if _, err := r.eng.Instantiate("us", schema, ""); err != nil {
		t.Fatal(err)
	}
	// Crash before Start: only meta (Started=false) and the Waiting
	// root run are durable.
	r.eng.Close()

	r2 := rigOver(t, r)
	workload.Bind(r2.impls)
	if _, err := r2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst, err := r2.eng.Recover("us", mustCompileSource)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot goes through the controller, so by the time it returns
	// the post-recovery evaluation has drained: the root must still be
	// Waiting with no chosen set.
	rows, err := inst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Path == "app" && (row.State != engine.RunWaiting || row.ChosenSet != "") {
			t.Fatalf("recovered unstarted root auto-started: %+v", row)
		}
	}
	if got := inst.Status(); got != engine.StatusCreated {
		t.Fatalf("status = %v, want created", got)
	}
	// The redelivered Start lands normally and the chain completes.
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, inst)
	if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
		t.Fatalf("result after recovered start: %+v", res)
	}
}
