package execsvc_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/failure"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/scripts"
	"repro/internal/store"
	"repro/internal/txn"
)

// stack is the full distributed deployment of Fig. 4: naming, repository
// and execution services on an orb, plus clients.
type stack struct {
	st     *store.MemStore
	impls  *registry.Registry
	eng    *engine.Engine
	repo   *repository.Service
	exec   *execsvc.Service
	server *orb.Server

	naming *orb.NamingClient
	repoC  *repository.Client
	execC  *execsvc.Client
}

func newStack(t *testing.T) *stack {
	t.Helper()
	st := store.NewMemStore()
	mgr := txn.NewManager(st)
	preg := persist.NewRegistry(st, mgr, nil)
	impls := registry.New()
	eng := engine.New(preg, impls, engine.Config{})
	t.Cleanup(eng.Close)
	repo := repository.New(preg)
	exec := execsvc.New(eng, repo)

	server, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	naming := orb.NewNaming()
	server.Register(orb.NamingObject, naming.Servant())
	server.Register(repository.ObjectName, repo.Servant())
	server.Register(execsvc.ObjectName, exec.Servant())
	naming.BindEntry(repository.ObjectName, server.Addr())
	naming.BindEntry(execsvc.ObjectName, server.Addr())

	c := orb.Dial(server.Addr(), orb.ClientConfig{})
	t.Cleanup(c.Close)
	return &stack{
		st: st, impls: impls, eng: eng, repo: repo, exec: exec, server: server,
		naming: orb.NewNamingClient(c),
		repoC:  repository.NewClient(c),
		execC:  execsvc.NewClient(c),
	}
}

func bindOrderImpls(impls *registry.Registry) {
	impls.Bind("refPaymentAuthorisation", registry.Fixed("authorised", registry.Objects{"paymentInfo": {Class: "PaymentInfo", Data: "visa"}}))
	impls.Bind("refCheckStock", registry.Fixed("stockAvailable", registry.Objects{"stockInfo": {Class: "StockInfo", Data: "w7"}}))
	impls.Bind("refDispatch", registry.Fixed("dispatchCompleted", registry.Objects{"dispatchNote": {Class: "DispatchNote", Data: "n1"}}))
	impls.Bind("refPaymentCapture", registry.Fixed("done", nil))
}

func TestFullStackDeployAndExecute(t *testing.T) {
	s := newStack(t)
	bindOrderImpls(s.impls)

	// Resolve services through naming, deploy the script, run it — all
	// through the orb, as a remote admin client would.
	repoAddr, err := s.naming.Resolve(repository.ObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if repoAddr != s.server.Addr() {
		t.Fatalf("naming resolved %q, want %q", repoAddr, s.server.Addr())
	}
	version, err := s.repoC.Put("process-order", scripts.ProcessOrder)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("version = %d, want 1", version)
	}
	if err := s.execC.Instantiate("o-1", "process-order", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.execC.Start("o-1", "main", registry.Objects{"order": {Class: "Order", Data: "order-9"}}); err != nil {
		t.Fatal(err)
	}
	status, res, err := s.execC.WaitSettled("o-1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status != engine.StatusCompleted || res.Output != "orderCompleted" {
		t.Fatalf("status=%v result=%+v", status, res)
	}
	if res.Objects["dispatchNote"].Data.(string) != "n1" {
		t.Error("dispatch note lost across the wire")
	}

	// Status and events over the wire.
	st, tasks, err := s.execC.Status("o-1")
	if err != nil || st != engine.StatusCompleted {
		t.Fatalf("status = %v, %v", st, err)
	}
	if len(tasks) != 5 { // root + 4 constituents
		t.Fatalf("task rows = %d, want 5", len(tasks))
	}
	events, err := s.execC.Events("o-1", 0)
	if err != nil || len(events) == 0 {
		t.Fatalf("events = %d, %v", len(events), err)
	}
	// Incremental fetch.
	tail, err := s.execC.Events("o-1", events[len(events)-3].Seq)
	if err != nil || len(tail) != 2 {
		t.Fatalf("tail = %d, %v; want 2", len(tail), err)
	}
}

func TestFullStackRepositoryVersioning(t *testing.T) {
	s := newStack(t)
	if _, err := s.repoC.Put("svc", scripts.ServiceImpact); err != nil {
		t.Fatal(err)
	}
	v2, err := s.repoC.Put("svc", scripts.ServiceImpact)
	if err != nil || v2 != 2 {
		t.Fatalf("v2 = %d, %v", v2, err)
	}
	hist, err := s.repoC.History("svc")
	if err != nil || len(hist) != 2 {
		t.Fatalf("history = %v, %v", hist, err)
	}
	names, err := s.repoC.List()
	if err != nil || len(names) != 1 || names[0] != "svc" {
		t.Fatalf("list = %v, %v", names, err)
	}
	stats, err := s.repoC.Stats("svc")
	if err != nil || stats.Tasks != 4 {
		t.Fatalf("stats = %+v, %v", stats, err)
	}
	// A broken script must be rejected by the repository (compile check
	// on put).
	if _, err := s.repoC.Put("bad", "task t of taskclass Nope { }"); err == nil {
		t.Fatal("repository accepted an invalid script")
	}
	var appErr *orb.AppError
	if _, err := s.repoC.Get("ghost"); !errors.As(err, &appErr) {
		t.Fatal("missing schema must surface as an application error")
	}
	if err := s.repoC.Delete("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.repoC.Get("svc"); err == nil {
		t.Fatal("get after delete must fail")
	}
}

func TestFullStackReconfigureOverWire(t *testing.T) {
	s := newStack(t)
	bindOrderImpls(s.impls)
	// Gate dispatch so the instance is still running when we reconfigure.
	gate := make(chan struct{})
	s.impls.Bind("refDispatch", func(ctx registry.Context) (registry.Result, error) {
		<-gate
		return registry.Result{Output: "dispatchCompleted", Objects: registry.Objects{"dispatchNote": {Class: "DispatchNote", Data: "n1"}}}, nil
	})
	if _, err := s.repoC.Put("order", scripts.ProcessOrder); err != nil {
		t.Fatal(err)
	}
	if err := s.execC.Instantiate("o-2", "order", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.execC.Start("o-2", "main", registry.Objects{"order": {Class: "Order", Data: "o"}}); err != nil {
		t.Fatal(err)
	}
	// Add an auditing task that watches paymentAuthorisation, remotely.
	s.impls.Bind("refAudit", registry.Fixed("done", nil))
	frag := `
task audit of taskclass PaymentCapture
{
    implementation { "code" is "refAudit" };
    inputs
    {
        input main
        {
            inputobject paymentInfo from { paymentInfo of task paymentAuthorisation if output authorised }
        }
    }
};`
	if err := s.execC.Reconfigure("o-2", &engine.AddTaskOp{ScopePath: "processOrderApplication", Fragment: frag}); err != nil {
		t.Fatalf("remote reconfigure: %v", err)
	}
	close(gate)
	status, res, err := s.execC.WaitSettled("o-2", 10*time.Second)
	if err != nil || status != engine.StatusCompleted {
		t.Fatalf("status=%v err=%v", status, err)
	}
	if res.Output != "orderCompleted" {
		t.Fatalf("result = %+v", res)
	}
	// The audit does not gate the order's outcome, so its activation may
	// still be finishing when the root settles: wait for its completion
	// before reading the trace over the wire.
	inst, err := s.eng.Instance("o-2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := inst.WaitEvent(ctx, func(e engine.Event) bool {
		return e.Kind == engine.EventTaskCompleted && strings.HasSuffix(e.Task, "/audit")
	}); err != nil {
		t.Fatalf("audit never completed: %v (events: %v)", err, inst.Events())
	}
	events, err := s.execC.Events("o-2", 0)
	if err != nil {
		t.Fatal(err)
	}
	var auditRan, reconfigured bool
	for _, e := range events {
		if e.Kind == engine.EventTaskCompleted && strings.HasSuffix(e.Task, "/audit") {
			auditRan = true
		}
		if e.Kind == engine.EventReconfigured {
			reconfigured = true
		}
	}
	if !reconfigured || !auditRan {
		t.Fatalf("reconfigured=%v auditRan=%v", reconfigured, auditRan)
	}
}

func TestFullStackServiceRestartRecovery(t *testing.T) {
	// Instance survives an execution-service restart (Fig. 4's services
	// are transactional; state lives in the store, not the process).
	st := store.NewMemStore()

	newService := func(block bool) (*execsvc.Service, *engine.Engine, chan struct{}) {
		mgr := txn.NewManager(st)
		preg := persist.NewRegistry(st, mgr, nil)
		if _, err := preg.Recover(); err != nil {
			t.Fatal(err)
		}
		impls := registry.New()
		bindOrderImpls(impls)
		gate := make(chan struct{})
		if block {
			impls.Bind("refPaymentCapture", func(ctx registry.Context) (registry.Result, error) {
				close(gate)
				<-ctx.Done()
				return registry.Result{}, errors.New("cancelled")
			})
		}
		eng := engine.New(preg, impls, engine.Config{})
		repo := repository.New(preg)
		return execsvc.New(eng, repo), eng, gate
	}

	svc1, eng1, gate := newService(true)
	repo1 := repository.New(persist.NewRegistry(st, txn.NewManager(st), nil))
	if _, err := repo1.Put("order", scripts.ProcessOrder); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Instantiate("o-3", "order", ""); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Start("o-3", "main", registry.Objects{"order": {Class: "Order", Data: "o"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate:
	case <-time.After(5 * time.Second):
		t.Fatal("paymentCapture never started")
	}
	_ = svc1.Stop("o-3")
	eng1.Close()

	svc2, eng2, _ := newService(false)
	defer eng2.Close()
	if err := svc2.Recover("o-3"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	status, res, err := svc2.WaitSettled("o-3", 10*time.Second)
	if err != nil || status != engine.StatusCompleted || res.Output != "orderCompleted" {
		t.Fatalf("recovered: status=%v res=%+v err=%v", status, res, err)
	}
}

func TestLossyNetworkEventuallyCompletes(t *testing.T) {
	s := newStack(t)
	bindOrderImpls(s.impls)
	dialer, stats := failure.Lossy(failure.NetConfig{RefuseProb: 0.4, DropAfter: 6, Seed: 7})
	lossy := orb.Dial(s.server.Addr(), orb.ClientConfig{
		Retries:    50,
		RetryDelay: time.Millisecond,
		Dialer:     dialer,
	})
	defer lossy.Close()
	repoC := repository.NewClient(lossy)
	execC := execsvc.NewClient(lossy)

	if _, err := repoC.Put("order", scripts.ProcessOrder); err != nil {
		t.Fatalf("put over lossy link: %v", err)
	}
	if err := execC.Instantiate("o-4", "order", ""); err != nil {
		t.Fatalf("instantiate over lossy link: %v", err)
	}
	if err := execC.Start("o-4", "main", registry.Objects{"order": {Class: "Order", Data: "o"}}); err != nil {
		t.Fatalf("start over lossy link: %v", err)
	}
	status, res, err := execC.WaitSettled("o-4", 20*time.Second)
	if err != nil || status != engine.StatusCompleted || res.Output != "orderCompleted" {
		t.Fatalf("lossy run: status=%v res=%+v err=%v", status, res, err)
	}
	if stats.Refused()+stats.Dropped() == 0 {
		t.Error("fault injector produced no faults; test is vacuous")
	}
	if lossy.Retries() == 0 {
		t.Error("client performed no retries; test is vacuous")
	}
}

func TestPartitionHealsAndWorkContinues(t *testing.T) {
	s := newStack(t)
	bindOrderImpls(s.impls)
	part := failure.NewPartition()
	c := orb.Dial(s.server.Addr(), orb.ClientConfig{
		Retries:    100,
		RetryDelay: 5 * time.Millisecond,
		Dialer:     part.Dialer(),
	})
	defer c.Close()
	repoC := repository.NewClient(c)

	if _, err := repoC.Put("order", scripts.ProcessOrder); err != nil {
		t.Fatal(err)
	}
	part.Break()
	done := make(chan error, 1)
	go func() {
		_, err := repoC.Get("order")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	part.Heal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call across healed partition: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed after partition healed")
	}
}
