// Package experiments holds the end-to-end reproduction suite: one test
// per figure (Figs. 1-9) and per system-level experiment of the paper
// (crash recovery, dynamic reconfiguration, the Section 6 baselines, a
// lossy network, the temporal subsystem). Each test compiles the
// figure's script and drives it through the public packages, checking
// the behaviour docs/REPRODUCTION.md lists for that row. The package has
// no non-test code: nothing here is timed.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline/eca"
	"repro/internal/baseline/petri"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/execsvc"
	"repro/internal/failure"
	"repro/internal/orb"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repository"
	"repro/internal/script/sema"
	"repro/internal/scripts"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/workload"
)

// settle bounds every wait on a workflow; the workflows here finish in
// milliseconds, so reaching it means a hang.
const settle = 30 * time.Second

// env is one engine over a store, with its persistence registry and
// implementation bindings.
type env struct {
	preg  *persist.Registry
	impls *registry.Registry
	eng   *engine.Engine
	seq   int
}

// newEnv builds an engine over st (nil selects a fresh MemStore) and
// closes it when the test ends.
func newEnv(t *testing.T, st store.Store, cfg engine.Config) *env {
	t.Helper()
	if st == nil {
		st = store.NewMemStore()
	}
	preg := persist.NewRegistry(st, txn.NewManager(st), nil)
	impls := registry.New()
	eng := engine.New(preg, impls, cfg)
	t.Cleanup(eng.Close)
	return &env{preg: preg, impls: impls, eng: eng}
}

func compile(t *testing.T, name, src string) *core.Schema {
	t.Helper()
	schema, err := sema.CompileSource(name, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// run instantiates schema, starts it with inputs and waits for a
// terminal result, which must be the outcome want.
func (e *env) run(t *testing.T, schema *core.Schema, inputs registry.Objects, want string) (engine.Result, *engine.Instance) {
	t.Helper()
	e.seq++
	inst, err := e.eng.Instantiate(fmt.Sprintf("%s-%d", schema.Name, e.seq), schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", inputs); err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, inst)
	if res.Output != want {
		t.Fatalf("%s: outcome %q, want %q", inst.ID(), res.Output, want)
	}
	return res, inst
}

func waitDone(t *testing.T, inst *engine.Instance) engine.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), settle)
	defer cancel()
	res, err := inst.Wait(ctx)
	if err != nil {
		t.Fatalf("instance %s: %v", inst.ID(), err)
	}
	if st := inst.Status(); st != engine.StatusCompleted {
		t.Fatalf("instance %s settled %v, want completed", inst.ID(), st)
	}
	return res
}

func countEvents(inst *engine.Instance, match func(engine.Event) bool) int {
	n := 0
	for _, e := range inst.Events() {
		if match(e) {
			n++
		}
	}
	return n
}

const fig2Script = `
class A;

taskclass Feeder
{
    inputs { input main { a of class A } };
    outputs { outcome done { x of class A; y of class A } }
};

taskclass Chooser
{
    inputs
    {
        input first { p of class A };
        input second { q of class A }
    };
    outputs { outcome done { } }
};

taskclass App
{
    inputs { input main { a of class A } };
    outputs { outcome done { } }
};

compoundtask app of taskclass App
{
    task feeder of taskclass Feeder
    {
        implementation { "code" is "feeder" };
        inputs { input main { inputobject a from { a of task app if input main } } }
    };
    task chooser of taskclass Chooser
    {
        implementation { "code" is "chooser" };
        inputs
        {
            input first
            {
                inputobject p from { x of task feeder if output done; y of task feeder if output done }
            };
            input second
            {
                inputobject q from { y of task feeder if output done }
            }
        }
    };
    outputs { outcome done { notification from { task chooser if output done } } }
};
`

const fig3Script = `
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

func bindOrderImpls(impls *registry.Registry) {
	impls.Bind("refPaymentAuthorisation", registry.Fixed("authorised", registry.Objects{"paymentInfo": {Class: "PaymentInfo", Data: "p"}}))
	impls.Bind("refCheckStock", registry.Fixed("stockAvailable", registry.Objects{"stockInfo": {Class: "StockInfo", Data: "s"}}))
	impls.Bind("refDispatch", registry.Fixed("dispatchCompleted", registry.Objects{"dispatchNote": {Class: "DispatchNote", Data: "n"}}))
	impls.Bind("refPaymentCapture", registry.Fixed("done", nil))
}

func TestFigureScenarios(t *testing.T) {
	// Fig. 1: the dependency diamond, four branches wide.
	t.Run("fig1", func(t *testing.T) {
		e := newEnv(t, nil, engine.Config{})
		workload.Bind(e.impls)
		e.run(t, compile(t, "diamond4", workload.Diamond(4)), workload.Seed(), "done")
	})
	// Fig. 2: two input sets satisfiable in the same instant; the first
	// set and, within it, the first alternative win on every run.
	t.Run("fig2", func(t *testing.T) {
		e := newEnv(t, nil, engine.Config{})
		var chosen string
		e.impls.Bind("feeder", registry.Fixed("done", registry.Objects{
			"x": {Class: "A", Data: "fromX"},
			"y": {Class: "A", Data: "fromY"},
		}))
		e.impls.Bind("chooser", func(ctx registry.Context) (registry.Result, error) {
			chosen = ctx.InputSet() + "/" + fmt.Sprint(ctx.Inputs()["p"].Data)
			return registry.Result{Output: "done"}, nil
		})
		schema := compile(t, "fig2", fig2Script)
		for i := 0; i < 5; i++ {
			e.run(t, schema, registry.Objects{"a": {Class: "A", Data: "s"}}, "done")
			if chosen != "first/fromX" {
				t.Fatalf("run %d: non-deterministic selection %q", i, chosen)
			}
		}
	})
	// Fig. 3: wait, execute, one retried system failure, a mark per
	// successful iteration, repeats carrying the counter, the outcome.
	t.Run("fig3", func(t *testing.T) {
		const repeats = 3
		e := newEnv(t, nil, engine.Config{MaxRetries: 1})
		e.impls.Bind("cycler", func(ctx registry.Context) (registry.Result, error) {
			n := ctx.Inputs()["seed"].Data.(int)
			if n == 1 && ctx.Attempt() == 0 {
				return registry.Result{}, errors.New("transient")
			}
			if err := ctx.Mark("progress", registry.Objects{"snapshot": {Class: "D", Data: n}}); err != nil {
				return registry.Result{}, err
			}
			if n < repeats {
				return registry.Result{Output: "again", Objects: registry.Objects{"counter": {Class: "D", Data: n + 1}}}, nil
			}
			return registry.Result{Output: "finished", Objects: registry.Objects{"out": {Class: "D", Data: n}}}, nil
		})
		res, inst := e.run(t, compile(t, "fig3", fig3Script), registry.Objects{"seed": {Class: "D", Data: 0}}, "finished")
		if got := res.Objects["out"].Data; got != repeats {
			t.Fatalf("out = %v, want %d", got, repeats)
		}
		kind := func(k engine.EventKind) int {
			return countEvents(inst, func(e engine.Event) bool { return e.Kind == k && e.Task == "app/cycler" })
		}
		if n := kind(engine.EventTaskRetried); n != 1 {
			t.Errorf("retries = %d, want 1", n)
		}
		if n := kind(engine.EventTaskRepeated); n != repeats {
			t.Errorf("repeats = %d, want %d", n, repeats)
		}
		if n := kind(engine.EventTaskMarked); n != repeats+1 {
			t.Errorf("marks = %d, want %d", n, repeats+1)
		}
	})
	// Fig. 5: compounds nested three deep.
	t.Run("fig5", func(t *testing.T) {
		e := newEnv(t, nil, engine.Config{})
		workload.Bind(e.impls)
		e.run(t, compile(t, "nested3", workload.Nested(3, 2)), workload.Seed(), "done")
	})
	// Fig. 6: the service impact application, resolved path.
	t.Run("fig6", func(t *testing.T) {
		e := newEnv(t, nil, engine.Config{})
		e.impls.Bind("refAlarmCorrelator", registry.Fixed("foundFault", registry.Objects{"faultReport": {Class: "FaultReport", Data: "link-loss"}}))
		e.impls.Bind("refServiceImpactAnalysis", registry.Fixed("foundImpacts", registry.Objects{"serviceImpactReports": {Class: "ServiceImpactReports", Data: "impacts"}}))
		e.impls.Bind("refServiceImpactResolution", registry.Fixed("foundResolution", registry.Objects{"resolutionReport": {Class: "ResolutionReport", Data: "reroute"}}))
		e.run(t, compile(t, "service_impact", scripts.ServiceImpact), registry.Objects{"alarmsSource": {Class: "AlarmsSource", Data: "bus"}}, "resolved")
	})
	// Fig. 7: the process order application, including its atomic
	// dispatch task.
	t.Run("fig7", func(t *testing.T) {
		e := newEnv(t, nil, engine.Config{})
		bindOrderImpls(e.impls)
		res, _ := e.run(t, compile(t, "process_order", scripts.ProcessOrder), registry.Objects{"order": {Class: "Order", Data: "o"}}, "orderCompleted")
		if res.Objects["dispatchNote"].Data != "n" {
			t.Fatalf("dispatch note = %v", res.Objects["dispatchNote"].Data)
		}
	})
	// Figs. 8 and 9: the business trip with two hotel rejections; each
	// costs a compensation and a repeat, and toPay is released once.
	t.Run("fig89", func(t *testing.T) {
		const hotelRejects = 2
		e := newEnv(t, nil, engine.Config{})
		rejects := hotelRejects
		e.impls.Bind("refDataAcquisition", registry.Fixed("acquired", registry.Objects{"tripSpec": {Class: "TripSpec", Data: "AMS"}}))
		e.impls.Bind("refQueryAirline1", registry.Fixed("noOffer", nil))
		e.impls.Bind("refQueryAirline2", registry.Fixed("offer", registry.Objects{"flightOffer": {Class: "FlightOffer", Data: "BA-447"}}))
		e.impls.Bind("refQueryAirline3", registry.Fixed("offer", registry.Objects{"flightOffer": {Class: "FlightOffer", Data: "AF-1234"}}))
		e.impls.Bind("refFlightReservation", registry.Fixed("reserved", registry.Objects{
			"plane": {Class: "Plane", Data: "12A"},
			"cost":  {Class: "Cost", Data: 423},
		}))
		e.impls.Bind("refHotelReservation", func(registry.Context) (registry.Result, error) {
			if rejects > 0 {
				rejects--
				return registry.Result{Output: "failed"}, nil
			}
			return registry.Result{Output: "booked", Objects: registry.Objects{"hotel": {Class: "Hotel", Data: "K"}}}, nil
		})
		e.impls.Bind("refFlightCancellation", registry.Fixed("cancelled", nil))
		e.impls.Bind("refPrintTickets", registry.Fixed("printed", registry.Objects{"tickets": {Class: "Tickets", Data: "TK"}}))
		_, inst := e.run(t, compile(t, "business_trip", scripts.BusinessTrip), registry.Objects{"user": {Class: "User", Data: "fred"}}, "tripBooked")
		marks := countEvents(inst, func(e engine.Event) bool { return e.Kind == engine.EventTaskMarked && e.Output == "toPay" })
		repeats := countEvents(inst, func(e engine.Event) bool { return e.Kind == engine.EventTaskRepeated && e.Output == "retry" })
		if marks != 1 {
			t.Errorf("toPay marks = %d, want 1", marks)
		}
		if repeats != hotelRejects {
			t.Errorf("repeats = %d, want %d", repeats, hotelRejects)
		}
	})
}

// stack is the Fig. 4 structure: naming, repository and execution
// services on one orb server over loopback TCP, with process_order
// deployed.
type stack struct {
	server *orb.Server
}

func newStack(t *testing.T) *stack {
	t.Helper()
	e := newEnv(t, nil, engine.Config{})
	bindOrderImpls(e.impls)
	repo := repository.New(e.preg)
	server, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	naming := orb.NewNaming()
	server.Register(orb.NamingObject, naming.Servant())
	server.Register(repository.ObjectName, repo.Servant())
	server.Register(execsvc.ObjectName, execsvc.New(e.eng, repo).Servant())
	naming.BindEntry(repository.ObjectName, server.Addr())
	naming.BindEntry(execsvc.ObjectName, server.Addr())

	c := orb.Dial(server.Addr(), orb.ClientConfig{})
	t.Cleanup(c.Close)
	addr, err := orb.NewNamingClient(c).Resolve(repository.ObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if addr != server.Addr() {
		t.Fatalf("naming resolved the repository at %q, want %q", addr, server.Addr())
	}
	if _, err := repository.NewClient(c).Put("process-order", scripts.ProcessOrder); err != nil {
		t.Fatal(err)
	}
	return &stack{server: server}
}

// runRemote instantiates, starts and waits on one process order entirely
// through execution-service clients, then stops it.
func runRemote(t *testing.T, execC *execsvc.Client, id string) {
	t.Helper()
	if err := execC.Instantiate(id, "process-order", ""); err != nil {
		t.Fatal(err)
	}
	if err := execC.Start(id, "main", registry.Objects{"order": {Class: "Order", Data: id}}); err != nil {
		t.Fatal(err)
	}
	status, res, err := execC.WaitSettled(id, settle)
	if err != nil {
		t.Fatal(err)
	}
	if status != engine.StatusCompleted || res.Output != "orderCompleted" {
		t.Fatalf("%s: status=%v outcome=%q", id, status, res.Output)
	}
	if err := execC.Stop(id); err != nil {
		t.Fatal(err)
	}
}

// TestFig4FullStackScenario runs the process order twice through the
// whole Fig. 4 stack.
func TestFig4FullStackScenario(t *testing.T) {
	s := newStack(t)
	c := orb.Dial(s.server.Addr(), orb.ClientConfig{})
	defer c.Close()
	execC := execsvc.NewClient(c)
	for i := 0; i < 2; i++ {
		runRemote(t, execC, fmt.Sprintf("fig4-%d", i))
	}
}

// TestX1Scenario runs a diamond to its blocked join, crashes the engine
// (the store survives, the controller does not), recovers on a fresh
// engine and requires the workflow to finish without re-running the
// task completed before the crash.
func TestX1Scenario(t *testing.T) {
	st := store.NewMemStore()
	schema := compile(t, "x1", workload.Diamond(4))

	e1 := newEnv(t, st, engine.Config{})
	workload.Bind(e1.impls)
	blocked := make(chan struct{}, 1)
	e1.impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		select {
		case blocked <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return registry.Result{}, errors.New("cancelled")
	})
	inst, err := e1.eng.Instantiate("x1", schema, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(settle):
		t.Fatal("join never started")
	}
	inst.Stop()
	e1.eng.Close()

	e2 := newEnv(t, st, engine.Config{})
	workload.Bind(e2.impls)
	if _, err := e2.preg.Recover(); err != nil {
		t.Fatal(err)
	}
	inst2, err := e2.eng.Recover("x1", sema.CompileSource)
	if err != nil {
		t.Fatal(err)
	}
	if res := waitDone(t, inst2); res.Output != "done" {
		t.Fatalf("recovered outcome %q, want done", res.Output)
	}
	if n := countEvents(inst2, func(e engine.Event) bool { return e.Kind == engine.EventTaskStarted && e.Task == "app/head" }); n != 0 {
		t.Fatalf("app/head, completed before the crash, started %d times after recovery", n)
	}
}

// TestX2Scenario adds a task to a running instance and removes it again,
// three times over, then lets the instance finish.
func TestX2Scenario(t *testing.T) {
	e := newEnv(t, nil, engine.Config{})
	workload.Bind(e.impls)
	gate := make(chan struct{})
	e.impls.Bind("pair", func(ctx registry.Context) (registry.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return registry.Result{}, errors.New("cancelled")
		}
		return registry.Result{Output: "done", Objects: registry.Objects{"out": ctx.Inputs()["left"]}}, nil
	})
	inst, err := e.eng.Instantiate("x2", compile(t, "x2", workload.Diamond(2)), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start("main", workload.Seed()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("extra%d", i)
		frag := fmt.Sprintf(`
task %s of taskclass Stage
{
    implementation { "code" is "stage" };
    inputs
    {
        input main
        {
            inputobject in from { out of task head if output done }
        }
    }
};`, name)
		if err := inst.Reconfigure(&engine.AddTaskOp{ScopePath: "app", Fragment: frag}); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		if err := inst.Reconfigure(&engine.RemoveTaskOp{ScopePath: "app", Name: name}); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
	}
	if n := countEvents(inst, func(e engine.Event) bool { return e.Kind == engine.EventReconfigured }); n != 6 {
		t.Fatalf("reconfigured events = %d, want 6", n)
	}
	close(gate)
	if res := waitDone(t, inst); res.Output != "done" {
		t.Fatalf("outcome %q after reconfiguration, want done", res.Output)
	}
}

// TestX3Scenario runs an eight-stage chain on the engine and on both
// Section 6 baselines, and checks the specification-size ordering.
func TestX3Scenario(t *testing.T) {
	e := newEnv(t, nil, engine.Config{Ephemeral: true})
	workload.Bind(e.impls)
	schema := compile(t, "chain8", workload.Chain(8))
	e.run(t, schema, workload.Seed(), "done")

	root, err := schema.Root("")
	if err != nil {
		t.Fatal(err)
	}
	rules, tasks := eca.Compile(schema, root)
	if st := eca.NewEngine(rules, tasks, workload.Oracle()).Run(eca.SeedFacts(root)); st.TasksStarted != 8 {
		t.Fatalf("eca started %d tasks, want 8", st.TasksStarted)
	}
	net := petri.Compile(schema, root)
	if st := net.Run(petri.Seed(root), workload.Oracle()); st.TasksStarted != 8 {
		t.Fatalf("petri started %d tasks, want 8", st.TasksStarted)
	}
	stats := schema.Stats()
	script, nRules, nNet := stats.Sources+stats.InputSets+stats.Outputs, len(rules), len(net.Places)+len(net.Transitions)
	// The net encodes both places and transitions, so it is always the
	// largest.
	if script <= 0 || nRules <= 0 || nNet <= nRules {
		t.Fatalf("spec sizes out of expected order: script=%d rules=%d net=%d", script, nRules, nNet)
	}
}

// TestX5Scenario runs the process order through the Fig. 4 stack over a
// transport that refuses and drops connections.
func TestX5Scenario(t *testing.T) {
	s := newStack(t)
	dialer, stats := failure.Lossy(failure.NetConfig{RefuseProb: 0.3, DropAfter: 16, Seed: 7})
	lossy := orb.Dial(s.server.Addr(), orb.ClientConfig{
		Retries:    200,
		RetryDelay: 200 * time.Microsecond,
		Dialer:     dialer,
	})
	defer lossy.Close()
	execC := execsvc.NewClient(lossy)
	// The client reuses connections, so faults accumulate over several
	// runs (drops after a frame budget, refusals on re-dial).
	for i := 0; i < 5; i++ {
		runRemote(t, execC, fmt.Sprintf("x5-%d", i))
	}
	if stats.Refused()+stats.Dropped() == 0 {
		t.Error("no faults injected across 5 runs at p=0.3; scenario is vacuous")
	}
}

// TestAblationConfigurations runs one diamond under each run-state
// configuration the ablation baselines use: ephemeral and persistent
// over a memory store, and persistent over the WAL store. The
// full-rescan scheduler is compared against the dirty set by the engine
// differential tests.
func TestAblationConfigurations(t *testing.T) {
	schema := compile(t, "ablation", workload.Diamond(4))
	run := func(t *testing.T, st store.Store, cfg engine.Config) {
		t.Helper()
		e := newEnv(t, st, cfg)
		workload.Bind(e.impls)
		e.run(t, schema, workload.Seed(), "done")
	}
	for _, eph := range []bool{true, false} {
		run(t, store.NewMemStore(), engine.Config{Ephemeral: eph})
	}
	wal, closeWAL, err := store.Open("wal", t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the engine's cleanup, so it runs after it.
	t.Cleanup(closeWAL)
	run(t, wal, engine.Config{})
}
