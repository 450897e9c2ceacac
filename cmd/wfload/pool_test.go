package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/orb"
	"repro/internal/registry"
	"repro/internal/taskexec"
)

// TestRunPoolDrivesExecutorPool runs the pool mode against an
// in-process naming service and one task executor bound as the only
// member of the pool, both on loopback: every stage of every instance
// must be served by that executor, exactly once.
func TestRunPoolDrivesExecutorPool(t *testing.T) {
	const location, workers, total, chain = "workers", 2, 6, 3

	var calls atomic.Int64
	impls := registry.New()
	impls.BindFallback(func(code string) (registry.Func, bool) {
		f, ok := registry.Builtin(code)
		if !ok {
			return nil, false
		}
		return func(ctx registry.Context) (registry.Result, error) {
			calls.Add(1)
			return f(ctx)
		}, true
	})
	execSrv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer execSrv.Close()
	execSrv.Register(taskexec.ObjectName, taskexec.NewExecutor(impls).Servant())

	naming := orb.NewNaming()
	namingSrv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer namingSrv.Close()
	namingSrv.Register(orb.NamingObject, naming.Servant())
	naming.BindMember(location, execSrv.Addr(), 0)

	if err := runPool(namingSrv.Addr(), location, "fixed:done", workers, total, chain, taskexec.BalanceRoundRobin, 0); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != total*chain {
		t.Fatalf("executor served %d calls, want %d (total x chain)", got, total*chain)
	}
}
