package taskexec_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/script/sema"
	"repro/internal/store"
	"repro/internal/taskexec"
	"repro/internal/txn"
)

// remoteScript places one task at a named location; the engine must
// dispatch its activation to the remote executor. The located class
// declares no abort outcome: a remote activation runs with no
// transaction, so it cannot be atomic.
const remoteScript = `
class D;

taskclass Crunch
{
    inputs { input main { in of class D } };
    outputs { outcome done { out of class D } }
};

taskclass App
{
    inputs { input main { in of class D } };
    outputs { outcome done { out of class D } }
};

compoundtask app of taskclass App
{
    task crunch of taskclass Crunch
    {
        implementation { "code" is "crunch"; "location" is "worker-1" };
        inputs { input main { inputobject in from { in of task app if input main } } }
    };
    outputs { outcome done { outputobject out from { out of task crunch if output done } } }
};
`

// world wires an engine whose remote activations resolve through a
// naming table to one executor server.
type world struct {
	eng      *engine.Engine
	naming   *orb.Naming
	executor *orb.Server
	invoker  *taskexec.Invoker
	remote   *registry.Registry
}

func newWorld(t *testing.T) *world {
	t.Helper()
	// Executor node with its own implementation registry.
	remoteImpls := registry.New()
	exec := taskexec.NewExecutor(remoteImpls)
	execSrv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(execSrv.Close)
	execSrv.Register(taskexec.ObjectName, exec.Servant())

	naming := orb.NewNaming()
	naming.BindEntry("worker-1", execSrv.Addr())

	invoker, err := taskexec.NewPoolInvoker(naming.ResolveAll, taskexec.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(invoker.Close)

	st := store.NewMemStore()
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	localImpls := registry.New()
	eng := engine.New(preg, localImpls, engine.Config{
		MaxRetries:    1,
		RemoteInvoker: invoker.Invoke,
	})
	t.Cleanup(eng.Close)
	return &world{eng: eng, naming: naming, executor: execSrv, invoker: invoker, remote: remoteImpls}
}

// runRemote runs one instance of remoteScript until it settles and
// returns it with Wait's result.
func runRemote(t *testing.T, w *world, id string) (*engine.Instance, engine.Result, error) {
	t.Helper()
	schema := sema.MustCompileSource("remote.wf", []byte(remoteScript))
	inst, err := w.eng.Instantiate(id, schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", registry.Objects{"in": {Class: "D", Data: "payload"}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := inst.Wait(ctx)
	return inst, res, err
}

// wantRemoteTaskFailed requires an instance that stalled because its
// located task failed after the engine's one automatic retry.
func wantRemoteTaskFailed(t *testing.T, inst *engine.Instance, err error) {
	t.Helper()
	if !errors.Is(err, engine.ErrStalled) {
		t.Fatalf("wait: %v, want %v", err, engine.ErrStalled)
	}
	// Stalled is set before the drain that settled the instance has
	// emitted everything; Snapshot round-trips through the controller.
	if _, err := inst.Snapshot(); err != nil {
		t.Fatal(err)
	}
	retried, failed := 0, 0
	for _, e := range inst.Events() {
		switch {
		case e.Task == "app/crunch" && e.Kind == engine.EventTaskRetried:
			retried++
		case e.Task == "app/crunch" && e.Kind == engine.EventTaskFailed:
			failed++
		}
	}
	if retried != 1 || failed != 1 {
		t.Fatalf("app/crunch retried %d and failed %d times, want 1 and 1 (events: %v)", retried, failed, inst.Events())
	}
}

func TestRemoteExecution(t *testing.T) {
	w := newWorld(t)
	var sawPath string
	w.remote.Bind("crunch", func(ctx registry.Context) (registry.Result, error) {
		sawPath = ctx.TaskPath()
		in := ctx.Inputs()["in"].Data.(string)
		return registry.Result{Output: "done", Objects: registry.Objects{
			"out": {Class: "D", Data: strings.ToUpper(in)},
		}}, nil
	})
	_, res, err := runRemote(t, w, "remote-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "done" || res.Objects["out"].Data.(string) != "PAYLOAD" {
		t.Fatalf("result = %+v", res)
	}
	if sawPath != "app/crunch" {
		t.Fatalf("remote context path = %q", sawPath)
	}
}

func TestRemoteUnboundCodeRetriesThenFails(t *testing.T) {
	w := newWorld(t)
	// Nothing bound remotely: system failures, retried once, then the
	// task fails and the instance stalls.
	inst, _, err := runRemote(t, w, "remote-2")
	wantRemoteTaskFailed(t, inst, err)
}

func TestRemoteUnknownLocationFails(t *testing.T) {
	w := newWorld(t)
	w.naming.UnbindEntry("worker-1")
	inst, _, err := runRemote(t, w, "remote-3")
	wantRemoteTaskFailed(t, inst, err)
}

func TestRemoteExecutorMovedHealedByRetry(t *testing.T) {
	// The location resolves to a dead endpoint on the first activation
	// and to the real executor afterwards — a moved service healed by the
	// engine's automatic retry, with no timing dependence.
	remoteImpls := registry.New()
	remoteImpls.Bind("crunch", registry.Fixed("done", registry.Objects{"out": {Class: "D", Data: "ok"}}))
	execSrv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer execSrv.Close()
	execSrv.Register(taskexec.ObjectName, taskexec.NewExecutor(remoteImpls).Servant())

	calls := 0
	resolver := func(location string) ([]string, error) {
		calls++
		if calls == 1 {
			return []string{"127.0.0.1:1"}, nil // nothing listens here
		}
		return []string{execSrv.Addr()}, nil
	}
	invoker, err := taskexec.NewPoolInvoker(resolver, taskexec.PoolConfig{
		Client: orb.ClientConfig{Retries: 1, RetryDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer invoker.Close()

	st := store.NewMemStore()
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	eng := engine.New(preg, registry.New(), engine.Config{MaxRetries: 2, RemoteInvoker: invoker.Invoke})
	defer eng.Close()

	schema := sema.MustCompileSource("remote.wf", []byte(remoteScript))
	inst, err := eng.Instantiate("remote-4", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", registry.Objects{"in": {Class: "D", Data: "x"}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if res.Output != "done" {
		t.Fatalf("outcome = %q, want done after the location healed", res.Output)
	}
	retried := false
	for _, e := range inst.Events() {
		if e.Kind == engine.EventTaskRetried {
			retried = true
		}
	}
	if !retried {
		t.Error("expected at least one automatic retry")
	}
}
