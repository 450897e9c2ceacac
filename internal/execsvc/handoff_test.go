package execsvc_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestWaitSettledHandoffRedirects guards the graceful-handoff window: a
// WaitSettled already past the ownership guard and blocked on a running
// instance observes StatusStopped when the partition is handed off
// (the manager drops ownership, then stops the partition's instances).
// That stop is a relocation, not an outcome — the servant must answer
// with the ownership refusal so the routing client re-resolves the new
// owner, rather than reporting the instance as terminally stopped.
func TestWaitSettledHandoffRedirects(t *testing.T) {
	st := store.NewMemStore()
	mgr := txn.NewManager(st)
	preg := persist.NewRegistry(st, mgr, nil)
	impls := registry.New()
	eng := engine.New(preg, impls, engine.Config{})
	t.Cleanup(eng.Close)
	svc := execsvc.New(eng, repository.New(preg))

	var owned atomic.Bool
	owned.Store(true)
	svc.SetOwnership(func(string) (bool, string) { return owned.Load(), "10.0.0.9:7" })

	gate := make(chan struct{})
	impls.Bind("stage", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
			return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["in"]}}, nil
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
	})
	schema := workload.MustCompile("ho", workload.Chain(1))
	inst, err := eng.Instantiate("ho", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}

	type settled struct {
		status engine.InstanceStatus
		err    error
	}
	ch := make(chan settled, 1)
	go func() {
		status, _, werr := svc.WaitSettled("ho", 10*time.Second)
		ch <- settled{status, werr}
	}()
	// Let the wait block on the gated stage, then hand the partition
	// off in the manager's order: ownership first, teardown second.
	time.Sleep(50 * time.Millisecond)
	owned.Store(false)
	eng.StopMatching(nil)
	got := <-ch
	if addr, ok := execsvc.NotOwnerAddr(got.err); !ok || addr != "10.0.0.9:7" {
		t.Fatalf("want not-owner redirect, got status %v err %v", got.status, got.err)
	}

	// An administrative Stop with ownership retained still reports
	// StatusStopped as a settled outcome.
	owned.Store(true)
	inst2, err := eng.Instantiate("ho2", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst2.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	go func() {
		status, _, werr := svc.WaitSettled("ho2", 10*time.Second)
		ch <- settled{status, werr}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := svc.Stop("ho2"); err != nil {
		t.Fatal(err)
	}
	got = <-ch
	if got.err != nil || got.status != engine.StatusStopped {
		t.Fatalf("administrative stop: status %v err %v, want stopped/nil", got.status, got.err)
	}
	close(gate)
}

// stallingStore applies a batch for an instance under prefix, then
// holds the committer until release is closed.
type stallingStore struct {
	*store.MemStore
	prefix           string
	applied, release chan struct{}
}

func (s *stallingStore) ApplyBatch(ops []store.BatchOp) error {
	if err := store.ApplyBatch(s.MemStore, ops); err != nil {
		return err
	}
	if len(ops) > 0 && strings.HasPrefix(string(ops[0].ID), s.prefix) {
		close(s.applied)
		<-s.release
	}
	return nil
}

// TestInstantiateHandoffRedirects guards the handoff window of
// Instantiate, which commits outside the engine lock: a partition
// handed off while the instance's first batch is committing stops the
// instance before it starts, and the servant must answer with the
// ownership refusal so the routing client retries on the new owner
// (where the durable instance is recovered and the retry deduplicated).
func TestInstantiateHandoffRedirects(t *testing.T) {
	st := &stallingStore{MemStore: store.NewMemStore(), prefix: "inst/hx/",
		applied: make(chan struct{}), release: make(chan struct{})}
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	eng := engine.New(preg, registry.New(), engine.Config{})
	t.Cleanup(eng.Close)
	repo := repository.New(preg)
	if _, err := repo.Put("ho", workload.Chain(1)); err != nil {
		t.Fatal(err)
	}
	svc := execsvc.New(eng, repo)
	var owned atomic.Bool
	owned.Store(true)
	svc.SetOwnership(func(string) (bool, string) { return owned.Load(), "10.0.0.9:7" })

	errc := make(chan error, 1)
	go func() { errc <- svc.Instantiate("hx", "ho", "") }()
	<-st.applied
	// The manager's handoff order: ownership first, teardown second.
	owned.Store(false)
	eng.StopMatching(nil)
	close(st.release)
	if addr, ok := execsvc.NotOwnerAddr(<-errc); !ok || addr != "10.0.0.9:7" {
		t.Fatal("Instantiate across a handoff did not redirect to the new owner")
	}
	if ids := eng.Instances(); len(ids) != 0 {
		t.Fatalf("instance started on the old owner: %v", ids)
	}
}
