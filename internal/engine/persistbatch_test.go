package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// countingStore wraps a Store and counts store batch applications and
// transaction decision records (written alone or inside a batch).
type countingStore struct {
	store.Store
	batches   atomic.Int64
	decisions atomic.Int64
}

func (c *countingStore) noteDecision(id store.ID) {
	if strings.HasPrefix(string(id), "txdecision/") {
		c.decisions.Add(1)
	}
}

func (c *countingStore) Write(id store.ID, data []byte) error {
	c.noteDecision(id)
	return c.Store.Write(id, data)
}

func (c *countingStore) ApplyBatch(ops []store.BatchOp) error {
	c.batches.Add(1)
	for _, op := range ops {
		if !op.Delete {
			c.noteDecision(op.ID)
		}
	}
	return store.ApplyBatch(c.Store, ops)
}

// runChainCounting executes one n-task chain over a counting store and
// returns the store batches and transaction decisions it cost.
func runChainCounting(t *testing.T, n int, cfg engine.Config) (batches, decisions int64) {
	t.Helper()
	cs := &countingStore{Store: store.NewMemStore()}
	preg := persist.NewRegistry(cs, txn.NewManager(cs), nil)
	impls := registry.New()
	workload.Bind(impls)
	eng := engine.New(preg, impls, cfg)
	engine.VerifyScheduler(eng)
	t.Cleanup(eng.Close)

	schema := workload.MustCompile("pc", workload.Chain(n))
	inst, err := eng.Instantiate("pc", schema, "")
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
		t.Fatal(err)
	}
	if res.Output != "done" {
		t.Fatalf("outcome %q", res.Output)
	}
	inst.Stop()
	return cs.batches.Load(), cs.decisions.Load()
}

// TestBatchedPersistOneTxnPerDrain pins the batching invariant: all
// run-state writes of one dirty-set drain are coalesced into a single
// store batch, so a chain of n tasks costs O(n) batches (one per
// completion-event drain plus a constant), not one per transition, and
// the engine's bookkeeping writes no transaction decision at all.
func TestBatchedPersistOneTxnPerDrain(t *testing.T) {
	const n = 16
	batches, decisions := runChainCounting(t, n, engine.Config{})

	// Instantiate + start meta + one batch per drain. A chain drains once
	// per completion event plus start and finish, so ~n+4 batches.
	if batches > int64(n+6) {
		t.Fatalf("used %d store batches for a %d-chain, want <= %d (one per drain)", batches, n, n+6)
	}
	if batches < int64(n) {
		t.Fatalf("used %d store batches for a %d-chain: the run states did not reach the store as batches", batches, n)
	}
	if decisions != 0 {
		t.Fatalf("the drain wrote %d transaction decisions, want 0 (batches commit straight to the store)", decisions)
	}
}

// TestDurableStateMatchesAcrossStores is a differential check over the
// store backends wfexec -store offers: an instance run to completion on
// each must produce identical terminal results and identical durable
// object sets.
func TestDurableStateMatchesAcrossStores(t *testing.T) {
	durable := func(backend string) ([]store.ID, engine.Result) {
		st, closeStore, err := store.Open(backend, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer closeStore()
		preg := persist.NewRegistry(st, txn.NewManager(st), nil)
		impls := registry.New()
		workload.Bind(impls)
		eng := engine.New(preg, impls, engine.Config{})
		engine.VerifyScheduler(eng)
		defer eng.Close()
		schema := workload.MustCompile("diffp", workload.Diamond(4))
		inst, err := eng.Instantiate("diffp", schema, "")
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
			t.Fatal(err)
		}
		inst.Stop()
		ids, err := st.List("inst/")
		if err != nil {
			t.Fatal(err)
		}
		return ids, res
	}
	memIDs, memRes := durable("mem")
	if memRes.Output != "done" || len(memIDs) == 0 {
		t.Fatalf("mem store: result %+v, durable objects %v", memRes, memIDs)
	}
	for _, backend := range []string{"wal"} {
		ids, res := durable(backend)
		if res.Output != memRes.Output || res.State != memRes.State {
			t.Fatalf("results diverged: mem %+v, %s %+v", memRes, backend, res)
		}
		if fmt.Sprint(ids) != fmt.Sprint(memIDs) {
			t.Fatalf("durable object sets diverged:\nmem:  %v\n%s: %v", memIDs, backend, ids)
		}
	}
}

// walRig is an engine stack over a WALStore directory, reopenable to
// simulate a full process crash (close the store, reopen from disk).
type walRig struct {
	ws    *store.WALStore
	preg  *persist.Registry
	impls *registry.Registry
	eng   *engine.Engine
}

func newWalRig(t *testing.T, dir string) *walRig {
	t.Helper()
	ws, err := store.NewWALStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ws.Close() })
	preg := persist.NewRegistry(ws, txn.NewManager(ws), nil)
	impls := registry.New()
	eng := engine.New(preg, impls, engine.Config{})
	engine.VerifyScheduler(eng)
	t.Cleanup(eng.Close)
	return &walRig{ws: ws, preg: preg, impls: impls, eng: eng}
}

// TestWALBackendCrashRecovery runs the engine's crash-recovery scenario
// against the WAL backend end to end: run a chain to its k-th
// completion, stop everything, reopen the store from its directory (real
// replay path), recover, finish — completed tasks must not re-run.
func TestWALBackendCrashRecovery(t *testing.T) {
	const n, k = 5, 2
	dir := t.TempDir()
	r := newWalRig(t, dir)
	workload.Bind(r.impls)
	schema := workload.MustCompile("walcrash", workload.Chain(n))
	inst, err := r.eng.Instantiate("walcrash", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskCompleted && e.Task == fmt.Sprintf("app/t%d", k)
	}); err != nil {
		t.Fatal(err)
	}
	inst.Stop()
	r.eng.Close()
	if err := r.ws.Close(); err != nil {
		t.Fatal(err)
	}

	// Process restart: everything rebuilt from the WAL directory.
	r2 := newWalRig(t, dir)
	workload.Bind(r2.impls)
	if _, err := r2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := r2.eng.Recover("walcrash", mustCompileSource)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	res, err := inst2.Wait(ctx2)
	if err != nil {
		t.Fatalf("recovered instance did not finish: %v", err)
	}
	if res.Output != "done" || res.Objects["out"].Data.(string) != "seed" {
		t.Fatalf("recovered result: %+v", res)
	}
	for _, e := range inst2.Events() {
		if e.Kind == engine.EventTaskStarted {
			var idx int
			if _, err := fmt.Sscanf(e.Task, "app/t%d", &idx); err == nil && idx <= k {
				t.Fatalf("t%d re-executed after WAL recovery", idx)
			}
		}
	}
}

// TestWALBackendRecoverReconfigured mirrors the reconfiguration recovery
// regression over the WAL backend: a task added to a running instance
// must survive a crash+replay cycle through segment files.
func TestWALBackendRecoverReconfigured(t *testing.T) {
	dir := t.TempDir()
	r := newWalRig(t, dir)
	gate := make(chan struct{})
	r.impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
	})
	schema := workload.MustCompile("walrc", workload.Chain(2))
	inst, err := r.eng.Instantiate("walrc", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "app", Fragment: `
task t9 of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs { input main { inputobject in from { in of task t1 if input main } } }
}`}); err != nil {
		t.Fatal(err)
	}
	inst.Stop()
	r.eng.Close()
	if err := r.ws.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newWalRig(t, dir)
	workload.Bind(r2.impls)
	if _, err := r2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := r2.eng.Recover("walrc", mustCompileSource)
	if err != nil {
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
	if _, err := inst2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rows, _ := inst2.Snapshot()
	found := false
	for _, row := range rows {
		if row.Path == "app/t9" {
			found = true
		}
	}
	if !found {
		t.Fatal("reconfiguration-added t9 missing after WAL crash recovery")
	}
}

// stallingStore applies a batch that touches stallPrefix, then holds
// the committer until release is closed.
type stallingStore struct {
	store.Store
	stallPrefix string
	applied     chan struct{}
	release     chan struct{}
}

func (s *stallingStore) ApplyBatch(ops []store.BatchOp) error {
	if err := store.ApplyBatch(s.Store, ops); err != nil {
		return err
	}
	for _, op := range ops {
		if strings.HasPrefix(string(op.ID), s.stallPrefix) {
			close(s.applied)
			<-s.release
			break
		}
	}
	return nil
}

// TestInstantiateCommitsOutsideEngineLock: while Instantiate waits for
// its batch, the engine answers lookups, a duplicate Instantiate and a
// RecoverMatching see the reserved ID, and a StopMatching that covers it
// keeps it from starting; the instance stays durable and recoverable.
func TestInstantiateCommitsOutsideEngineLock(t *testing.T) {
	st := &stallingStore{Store: store.NewMemStore(), stallPrefix: "inst/slow/",
		applied: make(chan struct{}), release: make(chan struct{})}
	impls := registry.New()
	workload.Bind(impls)
	eng := engine.New(persist.NewRegistry(st, txn.NewManager(st), nil), impls, engine.Config{})
	defer eng.Close()
	schema := workload.MustCompile("slow", workload.Chain(2))

	done := make(chan error, 1)
	go func() {
		_, err := eng.Instantiate("slow", schema, "")
		done <- err
	}()
	<-st.applied
	if _, err := eng.Instance("slow"); !errors.Is(err, engine.ErrInstanceNotFound) {
		t.Fatalf("lookup during the commit: %v, want ErrInstanceNotFound", err)
	}
	if _, err := eng.Instantiate("slow", schema, ""); !errors.Is(err, engine.ErrInstanceExists) {
		t.Fatalf("duplicate Instantiate during the commit: %v, want ErrInstanceExists", err)
	}
	if ids, err := eng.RecoverMatching(mustCompileSource, nil); err != nil || len(ids) != 0 {
		t.Fatalf("RecoverMatching during the commit recovered %v, %v; want nothing", ids, err)
	}
	eng.StopMatching(func(id string) bool { return id == "slow" })
	close(st.release)
	if err := <-done; !errors.Is(err, engine.ErrStopped) {
		t.Fatalf("Instantiate stopped mid-commit: %v, want ErrStopped", err)
	}
	if ids := eng.Instances(); len(ids) != 0 {
		t.Fatalf("stopped instance started anyway: %v", ids)
	}
	if ids, err := eng.RecoverMatching(mustCompileSource, nil); err != nil || len(ids) != 1 {
		t.Fatalf("RecoverMatching after the commit: %v, %v; want [slow]", ids, err)
	}
}
